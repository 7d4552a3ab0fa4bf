//! Records the build's profile, source revision and compiler for the host
//! block every run prints.

use std::path::Path;
use std::process::Command;

fn output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    // Only ask git when the benchmark sits in a git checkout of its own
    // repository; an exported tree has no revision to report.
    let git_dir = root.join(".git");
    let rev = if git_dir.exists() {
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        let root = root.to_string_lossy().to_string();
        output("git", &["-C", &root, "rev-parse", "--short", "HEAD"])
    } else {
        None
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.unwrap_or_else(|| "unknown".into())
    );
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        output(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into())
    );
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
