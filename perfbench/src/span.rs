//! In-memory span log for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span has a name, a start and end on one monotonic clock, a parent,
//! and a request id shared by every span of one heal, exploration or job.
//! Spans stay in memory until [`SpanLog::write_jsonl`] writes them out.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its log.
pub type SpanId = usize;

/// One recorded span. `end_ns` is `None` while the span is open.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.unwrap_or(self.start_ns) - self.start_ns
    }
}

/// A thread-safe span log. Worker threads record into the same log; the
/// lock is taken once when a span opens and once when it closes.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log lock");
        spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: None,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log lock")[id].end_ns = Some(end_ns);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Wall duration of one span, in milliseconds.
    pub fn duration_ms(&self, id: SpanId) -> f64 {
        self.spans.lock().expect("span log lock")[id].duration_ns() as f64 / 1e6
    }

    /// Self time per `(request, span name)`, in milliseconds: each span's
    /// duration minus the part of it that the union of its children
    /// covers. Children on other threads may overlap one another; the
    /// union counts such overlap once.
    pub fn self_ms(&self) -> BTreeMap<(u64, &'static str), f64> {
        let spans = self.spans.lock().expect("span log lock");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
                children[p].push((s.start_ns, end));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = union_ns(&mut children[i]);
            let own = s.duration_ns().saturating_sub(covered) as f64 / 1e6;
            *out.entry((s.request, s.name)).or_insert(0.0) += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log lock");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns.unwrap_or(s.start_ns)
            )?;
        }
        w.flush()
    }
}

/// Length of the union of half-open intervals.
fn union_ns(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-request self time of `name`, one value per request that has it.
pub fn per_request(self_ms: &BTreeMap<(u64, &'static str), f64>, name: &str) -> Vec<f64> {
    self_ms
        .iter()
        .filter(|((_, n), _)| *n == name)
        .map(|(_, v)| *v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_once() {
        let mut iv = vec![(0, 10), (5, 15), (20, 30)];
        assert_eq!(union_ns(&mut iv), 25);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let log = SpanLog::new();
        let root = log.begin("root", 1, None);
        log.time("child", 1, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        log.end(root);
        let s = log.self_ms();
        let child = s[&(1, "child")];
        assert!(child >= 5.0);
        assert!(s[&(1, "root")] < log.duration_ms(root) - child + 1e-6);
    }
}
