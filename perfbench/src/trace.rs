//! In-memory span recorder for the traced runs.
//!
//! Each span records its name, start, end and parent. Spans stay in
//! memory while the run measures and are written out as JSON lines once
//! it ends. A span's **self time** is its duration minus the time its
//! direct children cover; the recorder is single-threaded, so children of
//! one span never overlap and their durations simply add up.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `core.lanes.to_planes`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans.iter().zip(child_ns).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += own;
        }
        out
    }

    /// Total duration of the root spans named `name`.
    #[must_use]
    pub fn root_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes every span as one JSON line: `id`, `parent`, `name`,
    /// `start_ns`, `end_ns`.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            busy(200);
            t.span("child", |t| {
                busy(300);
                t.span("leaf", |_| busy(300));
            });
            t.span("child", |_| busy(100));
        });
        let layers = t.layers();
        let root = layers["root"];
        let child = layers["child"];
        let leaf = layers["leaf"];
        assert_eq!((root.count, child.count, leaf.count), (1, 2, 1));
        // Self times partition the root's duration exactly.
        assert_eq!(root.self_ns + child.self_ns + leaf.self_ns, root.total_ns);
        assert_eq!(child.self_ns + leaf.self_ns, child.total_ns);
        assert_eq!(leaf.self_ns, leaf.total_ns);
        assert!(root.self_ns >= 200_000 && leaf.self_ns >= 300_000);
        assert_eq!(t.root_ns("root"), root.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
    }
}
