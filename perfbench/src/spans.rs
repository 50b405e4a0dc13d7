//! In-memory span recording around the calls the benchmark makes into
//! each layer.
//!
//! A span carries its name, start and end, the span that caused it, and
//! the pass ("iteration") it belongs to. Spans stay in memory while the
//! benchmark runs and are written out once at the end, as a Chrome Trace
//! Format file that ui.perfetto.dev opens. A layer's self time is its
//! spans' duration minus the part their child spans cover.
//!
//! Switched off, [`Tracer::span`] only calls its closure: no clock reads,
//! no allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span id; [`ROOT`] is the parent of top-level spans.
pub type SpanId = u64;

/// The parent id of top-level spans.
pub const ROOT: SpanId = 0;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id (unique within the run, never [`ROOT`]).
    pub id: SpanId,
    /// The causing span, or [`ROOT`].
    pub parent: SpanId,
    /// Layer-qualified name, e.g. `explore.call`.
    pub name: String,
    /// The pass this span belongs to.
    pub iter: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Small integer naming the recording thread.
    pub thread: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Shared by reference across worker threads.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_NO: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent` in pass `iter`;
    /// `f` receives the new span's id for its children. Off, `f` receives
    /// [`ROOT`] and nothing is timed.
    pub fn span<R>(&self, name: &str, parent: SpanId, iter: u64, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.on {
            return f(ROOT);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            iter,
            start_ns,
            end_ns,
            thread: THREAD_NO.with(|t| *t),
        });
        r
    }

    fn push(&self, s: Span) {
        self.spans.lock().expect("span buffer poisoned").push(s);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Self time per span name over the spans of pass `iter`, in seconds:
    /// each span's duration minus the durations of its direct children.
    pub fn self_times(&self, iter: u64) -> BTreeMap<String, f64> {
        let spans: Vec<Span> = self
            .spans()
            .into_iter()
            .filter(|s| s.iter == iter)
            .collect();
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != ROOT {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in &spans {
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.name.clone()).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// The spans as a Chrome Trace Format document (one complete event
    /// per span; `args` carry the id, parent, and pass).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"iter\":{}}}}}{sep}\n",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.iter
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::on();
        t.span("outer", ROOT, 0, |id| {
            t.span("inner", id, 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let st = t.self_times(0);
        let outer = t
            .spans()
            .iter()
            .find(|s| s.name == "outer")
            .unwrap()
            .dur_ns() as f64
            / 1e9;
        assert!(st["inner"] >= 0.005);
        assert!(st["outer"] < outer - 0.004);
        assert!(t.chrome_trace().contains("\"parent\":1"));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", ROOT, 0, |id| id), ROOT);
        assert!(t.spans().is_empty());
    }
}
