//! The benchmark's own span recorder. Spans are opened around calls into
//! the program's public API (never inside the program), kept in memory and
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `ops` is the number of identical operations the span
/// covers, so very short calls can be timed in batches.
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub child_ns: u64,
    pub ops: u32,
}

/// Count and medians for every span of one name.
pub struct Stat {
    pub count: usize,
    /// Median duration per operation, in nanoseconds.
    pub median_ns: f64,
    /// Median self time (duration minus child spans) per operation.
    pub self_ns: f64,
}

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` covering `ops` operations.
    pub fn span<R>(&mut self, name: &'static str, ops: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: (start - self.t0).as_nanos() as u64,
            dur_ns: 0,
            child_ns: 0,
            ops: ops.max(1),
        });
        self.open.push(id);
        let out = f(self);
        let dur = start.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id].dur_ns = dur;
        if let Some(p) = parent {
            self.spans[p].child_ns += dur;
        }
        out
    }

    pub fn stat(&self, name: &str) -> Option<Stat> {
        let mut per_op = Vec::new();
        let mut self_per_op = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let ops = f64::from(s.ops);
            per_op.push(s.dur_ns as f64 / ops);
            self_per_op.push(s.dur_ns.saturating_sub(s.child_ns) as f64 / ops);
        }
        if per_op.is_empty() {
            return None;
        }
        Some(Stat {
            count: per_op.len(),
            median_ns: median(&mut per_op),
            self_ns: median(&mut self_per_op),
        })
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or(String::from("null"), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"ops\":{}}}",
                s.name,
                s.id,
                parent,
                s.start_ns,
                s.dur_ns,
                s.dur_ns.saturating_sub(s.child_ns),
                s.ops
            )?;
        }
        out.flush()
    }
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
