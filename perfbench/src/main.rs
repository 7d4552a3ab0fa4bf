//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metric table and a detail line (host block, seed, sample
//! counts, exact counters), then the result line last. Exits non-zero,
//! without a result line, on bad arguments or any oracle mismatch.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::gen::{Scale, Workload};
use perfbench::Options;

fn arg<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {flag}"))
}

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let name = arg(args, "--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        arg(args, flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let opts = Options {
        seed: number("--seed")?,
        seconds,
        trace,
        scale: Scale::FULL,
        out_dir: PathBuf::from(".perfbench_out"),
    };
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(workload, &opts) {
        Ok(report) => {
            print!("{}", report.table());
            println!(
                "{}",
                report.detail_line(workload.name(), opts.seed, opts.trace)
            );
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", workload.name(), opts.seed);
            ExitCode::FAILURE
        }
    }
}
