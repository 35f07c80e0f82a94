//! The benchmark's own span recorder.
//!
//! Spans are taken only in this package, around calls into each
//! layer's public functions. One [`Tracer`] belongs to one thread; every
//! span carries the trace id of the request or repetition it belongs to,
//! its own id, its parent's id (0 for a root) and start/end times in ns
//! since a shared epoch. Spans stay in memory until [`write_jsonl`] at
//! exit. With tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    /// 1-based index into the owning tracer's span list.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    trace: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, trace: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Later spans belong to trace `id`.
    pub fn set_trace(&mut self, id: u64) {
        self.trace = id;
    }

    /// Nanoseconds since the shared epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` on the
    /// tracer it receives become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let id = idx as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span { trace: self.trace, id, parent, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span time not covered by its children, in ns, indexed like `spans`.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            child[s.parent as usize - 1] += s.dur_ns();
        }
    }
    spans.iter().zip(&child).map(|(s, &c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Self time per span name: `(count, total self ns)`.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += ns;
    }
    out
}

/// Over the root spans named `root`: the share of their summed
/// duration their children cover, how many roots their children cover
/// less than 90% of, and how many roots there are.
pub fn coverage(spans: &[Span], root: &str) -> (f64, usize, usize) {
    let (mut covered, mut total, mut thin, mut roots) = (0u64, 0u64, 0, 0);
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        if s.parent == 0 && s.name == root {
            covered += s.dur_ns() - own;
            total += s.dur_ns();
            thin += usize::from(10 * own > s.dur_ns());
            roots += 1;
        }
    }
    (covered as f64 / total.max(1) as f64, thin, roots)
}

/// Writes the spans of several tracers as JSON lines, renumbering span
/// ids so they stay unique across tracers.
pub fn write_jsonl(path: &Path, tracers: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0u64;
    for spans in tracers {
        for s in *spans {
            let parent = if s.parent == 0 { 0 } else { base + u64::from(s.parent) };
            writeln!(
                w,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace,
                base + u64::from(s.id),
                parent,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        base += spans.len() as u64;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_trace(7);
        t.span("root", |t| {
            t.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("b", |t| t.span("c", |_| ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.trace == 7));
        assert_eq!((spans[0].parent, spans[1].parent, spans[3].parent), (0, 1, 3));
        let by = self_by_name(spans);
        let total: u64 = by.values().map(|&(_, ns)| ns).sum();
        assert_eq!(total, spans[0].dur_ns(), "self times partition the root");
        let (share, _, roots) = coverage(spans, "root");
        assert!(share > 0.5 && roots == 1);
        assert_eq!(coverage(spans, "a").2, 0, "only roots count");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
