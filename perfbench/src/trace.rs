//! In-memory spans, recorded from the benchmark's side of every layer call.
//!
//! A span is `(request, layer, start, end, parent)`. Spans stay in memory
//! while a pass runs and are written out once it ends, so recording one
//! costs two `Instant` reads and a `Vec` push. A layer's self time is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// An append-only span log.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle for [`Tracer::end`].
    pub fn begin(&mut self, request: u64, layer: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            request,
            layer,
            start,
            end: start,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(
        &mut self,
        request: u64,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(request, layer, parent);
        let out = f();
        self.end(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds of every span: its duration minus the time
    /// its direct children cover (children never overlap each other, since
    /// one thread records them in sequence).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end - span.start);
            }
        }
        own
    }

    /// Self time per `(request, layer)`, summed over the request's spans of
    /// that layer (a layer may be entered several times per request).
    pub fn self_by_request(&self) -> BTreeMap<(&'static str, u64), u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry((span.layer, span.request)).or_insert(0) += own;
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `workload request layer start_ns end_ns parent` (`-` for a root).
    pub fn write_tsv(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "workload\trequest\tlayer\tstart_ns\tend_ns\tparent")?;
        for span in &self.spans {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{workload}\t{}\t{}\t{}\t{}\t{parent}",
                span.request, span.layer, span.start, span.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        let root = tracer.begin(1, "root", None);
        tracer.time(1, "child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.end(root);
        let own = tracer.self_times();
        let total = tracer.spans()[0].end - tracer.spans()[0].start;
        let child = tracer.spans()[1].end - tracer.spans()[1].start;
        assert_eq!(own[0], total - child);
        assert_eq!(own[1], child);
    }
}
