//! In-memory span recorder, self-time analysis and Chrome trace export.
//!
//! Spans are opened by the benchmark around calls into the program's public
//! functions; the program itself is never instrumented. A span records its
//! name, start, end, the span that caused it and the traced run it belongs
//! to. Runs nest as run ⊃ layer ⊃ level. The layer of a span is the part of
//! its name before the first `.` (`walk.l2` is in layer `walk`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are offsets from the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name, `layer.detail`.
    pub name: String,
    /// Traced run the span belongs to.
    pub run: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start offset.
    pub start: Duration,
    /// End offset (`None` while open).
    pub end: Option<Duration>,
}

impl Span {
    /// Wall time of the span (zero while open).
    pub fn duration(&self) -> Duration {
        self.end
            .map_or(Duration::ZERO, |e| e.saturating_sub(self.start))
    }
}

/// Records spans in memory; safe to share between threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span starting now.
    pub fn begin(&self, name: impl Into<String>, run: u64, parent: Option<SpanId>) -> SpanId {
        let start = self.epoch.elapsed();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.into(),
            run,
            parent,
            start,
            end: None,
        });
        spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&self, id: SpanId) {
        let end = self.epoch.elapsed();
        if let Some(span) = self.lock().get_mut(id) {
            span.end = Some(end);
        }
    }

    /// Records a span with explicit instants (for intervals observed from
    /// outside, such as a service request's phases).
    pub fn record(
        &self,
        name: impl Into<String>,
        run: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start = start.saturating_duration_since(self.epoch);
        let end = end.saturating_duration_since(self.epoch);
        let mut spans = self.lock();
        spans.push(Span {
            name: name.into(),
            run,
            parent,
            start,
            end: Some(end),
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: impl Into<String>,
        run: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.begin(name, run, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// The layer of a span name: the part before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Children of every span, by index.
pub fn children(spans: &[Span]) -> Vec<Vec<SpanId>> {
    let mut out = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            out[p].push(i);
        }
    }
    out
}

/// Length of the union of the children's intervals, clipped to the parent.
fn covered(spans: &[Span], kids: &[SpanId], parent: &Span) -> Duration {
    let (lo, hi) = (parent.start, parent.end.unwrap_or(parent.start));
    let mut iv: Vec<(Duration, Duration)> = kids
        .iter()
        .filter_map(|&k| spans[k].end.map(|e| (spans[k].start.max(lo), e.min(hi))))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (s, e) in iv {
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

/// Self time of span `id`: its duration minus the part of it that its
/// children cover.
pub fn self_time(spans: &[Span], kids: &[Vec<SpanId>], id: SpanId) -> Duration {
    spans[id]
        .duration()
        .saturating_sub(covered(spans, &kids[id], &spans[id]))
}

/// Share of span `id`'s duration that its children cover (1.0 for a span of
/// zero length).
pub fn coverage(spans: &[Span], kids: &[Vec<SpanId>], id: SpanId) -> f64 {
    let d = spans[id].duration();
    if d.is_zero() {
        return 1.0;
    }
    covered(spans, &kids[id], &spans[id]).as_secs_f64() / d.as_secs_f64()
}

/// Self time summed per span name, for the spans of run `run`.
pub fn self_times_of_run(spans: &[Span], kids: &[Vec<SpanId>], run: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.run == run) {
        *out.entry(s.name.clone()).or_insert(0.0) += self_time(spans, kids, i).as_secs_f64();
    }
    out
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The spans as Chrome trace-event JSON (complete `X` events, microseconds),
/// which Perfetto and `chrome://tracing` open directly. Each traced run is
/// one thread row; `args` carry the span id, parent and run.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for (i, s) in spans.iter().enumerate() {
        let Some(end) = s.end else { continue };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("{\"name\":");
        push_json_str(&mut out, &s.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, layer_of(&s.name));
        let ts = s.start.as_secs_f64() * 1e6;
        let dur = end.saturating_sub(s.start).as_secs_f64() * 1e6;
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
            s.run, s.run
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name: name.into(),
            run: 0,
            parent,
            start: Duration::from_millis(start_ms),
            end: Some(Duration::from_millis(end_ms)),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // run [0,100] ⊃ a [10,40], b [30,60] (overlapping), c [90,120] (clipped).
        let spans = vec![
            span("run", None, 0, 100),
            span("a.x", Some(0), 10, 40),
            span("b.y", Some(0), 30, 60),
            span("c.z", Some(0), 90, 120),
        ];
        let kids = children(&spans);
        assert_eq!(self_time(&spans, &kids, 0), Duration::from_millis(40));
        assert!((coverage(&spans, &kids, 0) - 0.6).abs() < 1e-9);
        assert_eq!(self_time(&spans, &kids, 1), Duration::from_millis(30));
    }

    #[test]
    fn chrome_export_is_one_event_per_closed_span() {
        let tracer = Tracer::new();
        let root = tracer.begin("run", 3, None);
        tracer.span("walk.l0", 3, Some(root), |_| {});
        let _open = tracer.begin("never.closed", 3, None);
        tracer.end(root);
        let json = chrome_trace_json(&tracer.spans());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"cat\":\"walk\""));
        assert!(json.contains("\"parent\":0"));
    }
}
