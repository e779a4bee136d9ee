//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public entry point. A span has a name (`<layer>.<what>`), a start, an
//! end, the span that caused it, and the request it belongs to. Spans
//! stay in memory until the run ends; [`self_times`] then charges each
//! span its duration minus the part of it that its children cover.
//!
//! A disabled [`Tracer`] records nothing: its calls return at once, so
//! the untraced run measures the program, not the recorder.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies a span within one [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are offsets from the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `profile.functional`.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset (equal to `start` while the span is open).
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to; `0` for work outside any request.
    pub request: u64,
}

/// Records spans and counters when enabled; does nothing otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span now and returns its id (a placeholder when off).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let now = self.epoch.elapsed();
        self.push(Span { name, start: now, end: now, parent, request })
    }

    /// Closes span `id` now.
    pub fn close(&self, id: SpanId) {
        if self.on {
            let now = self.epoch.elapsed();
            self.spans.lock().expect("span lock poisoned by a panicking recorder")[id].end =
                now;
        }
    }

    /// Records an already-finished span between two instants.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let start = start.saturating_duration_since(self.epoch);
        let end = end.saturating_duration_since(self.epoch);
        self.push(Span { name, start, end, parent, request })
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let r = f();
        self.close(id);
        r
    }

    /// Adds `n` to counter `name`.
    pub fn count(&self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.lock().expect("count lock poisoned").entry(name).or_insert(0.0) += n;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Every counter recorded so far.
    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        self.counts.lock().expect("count lock poisoned").clone()
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span lock poisoned");
        spans.push(span);
        spans.len() - 1
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own. Children that overlap or
/// touch are merged first, so time two children share is subtracted
/// once.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let own = s.end.saturating_sub(s.start);
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut run: Option<(Duration, Duration)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if b <= a {
                    continue;
                }
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            own.saturating_sub(covered)
        })
        .collect()
}

/// Writes `spans` as JSON lines (`id`, `name`, `start_us`, `end_us`,
/// `parent`, `request`, `self_us`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \
             \"parent\": {parent}, \"request\": {}, \"self_us\": {}}}",
            s.name,
            s.start.as_micros(),
            s.end.as_micros(),
            s.request,
            own.as_micros()
        )?;
    }
    out.flush()
}

/// Self time summed per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t.as_secs_f64();
    }
    out
}

/// Summed self time, in seconds, of every layer span below `root`: the
/// time the layers under it account for. The benchmark's own spans
/// (`bench.*`) are glue, not a layer, and do not count.
pub fn covered_below(spans: &[Span], root: SpanId) -> f64 {
    let selfs = self_times(spans);
    let mut below = vec![false; spans.len()];
    let mut total = 0.0;
    // Parents are always opened (and so recorded) before their children.
    for (i, s) in spans.iter().enumerate() {
        below[i] = s.parent.is_some_and(|p| p == root || below[p]);
        if below[i] && !s.name.starts_with("bench.") {
            total += selfs[i].as_secs_f64();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn span(name: &'static str, a: u64, b: u64, parent: Option<SpanId>) -> Span {
        Span { name, start: ms(a), end: ms(b), parent, request: 0 }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 3, 10, None)]), vec![ms(7)]);
    }

    #[test]
    fn nested_children_are_subtracted_one_level_at_a_time() {
        let spans = [
            span("root", 0, 100, None),
            span("mid", 10, 60, Some(0)),
            span("leaf", 20, 30, Some(1)),
            span("leaf", 40, 45, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![ms(50), ms(35), ms(10), ms(5)]);
        let by_name = self_time_by_name(&spans);
        assert!((by_name["leaf"] - 0.015).abs() < 1e-9);
        // Self times partition the root.
        let total: Duration = self_times(&spans).into_iter().sum();
        assert_eq!(total, ms(100));
    }

    #[test]
    fn touching_and_overlapping_children_count_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 20, Some(0)),
            span("b", 20, 30, Some(0)),  // touches a at 20
            span("c", 25, 40, Some(0)),  // overlaps b
            span("d", 90, 120, Some(0)), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans)[0], ms(100 - 30 - 10));
    }

    #[test]
    fn covered_below_sums_the_subtree_only() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("bench.glue", 70, 80, Some(0)),
            span("other", 0, 50, None),
            span("c", 0, 10, Some(4)),
        ];
        let got = covered_below(&spans, 0);
        assert!((got - 0.050).abs() < 1e-9, "{got}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("x", None, 1);
        t.close(id);
        t.count("n", 1.0);
        assert_eq!(t.time("y", None, 0, || 7), 7);
        assert!(t.spans().is_empty() && t.counts().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        let root = t.open("root", None, 3);
        let v = t.time("child", Some(root), 3, || 5);
        t.close(root);
        let spans = t.spans();
        assert_eq!(v, 5);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
