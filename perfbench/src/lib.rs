//! The layered SCOUT benchmark.
//!
//! One run drives one workload through the serving front door
//! (`ScoutServer::handle_bytes`) on wire bytes generated from a seed. An
//! untraced run reports the end-to-end metrics; a
//! traced run replays the same requests through the public call of every
//! layer, checks that the replay reproduces the server's reports, and
//! reports each layer's share from its own spans. See `README.md`.

pub mod closed;
pub mod gen;
pub mod layers;
pub mod report;
pub mod shadow;
pub mod trace;

use std::path::PathBuf;

use gen::{Scale, Workload};
use report::RunReport;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// An ingest answered within this long of its due time counts as goodput.
pub const GOODPUT_MS: f64 = 50.0;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Where runs keep their stores and traced runs write their spans.
    pub out_dir: PathBuf,
}

impl Options {
    fn write_spans(&self, workload: Workload, tracer: &Tracer) -> Result<(), String> {
        std::fs::create_dir_all(&self.out_dir).map_err(|e| e.to_string())?;
        let path = self
            .out_dir
            .join(format!("spans-{}-seed{}.tsv", workload.name(), self.seed));
        tracer
            .write_tsv(workload.name(), &path)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Runs one workload. Any oracle mismatch is an error, and an error carries
/// no metrics.
pub fn run(workload: Workload, opts: &Options) -> Result<RunReport, String> {
    closed::run(workload, opts)
}
