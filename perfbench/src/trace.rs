//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the program itself is not instrumented). Each span
//! has a name, start, end, parent and lane (the thread it ran on); all
//! spans of one run share the run's trace id. They are kept in memory and written out when the run
//! ends. With tracing off every call is a no-op.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval, in nanoseconds since the trace's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run (never 0).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The thread the span ran on (see [`lane`]).
    pub lane: u64,
    /// Layer-qualified name, e.g. `rl.grad_step`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e3
    }
}

/// A small number naming the calling thread, fixed for its lifetime.
pub fn lane() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LANE: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

/// The span store of one run.
pub struct Trace {
    enabled: bool,
    trace_id: String,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// A recorder; `enabled == false` makes every record a no-op.
    pub fn new(enabled: bool, trace_id: String) -> Trace {
        Trace {
            enabled,
            trace_id,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the trace's origin for `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a span id, for a parent recorded only after its children.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span of the calling thread under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        self.record_on(lane(), id, name, parent, start, end);
    }

    /// Records a span of thread `lane` under a reserved id, for intervals
    /// reconstructed after the fact on another thread.
    pub fn record_on(
        &self,
        lane: u64,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            lane,
            name,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records a span under a fresh id, returning the id (0 when off).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.reserve();
        self.record_as(id, name, parent, start, end);
        id
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Durations (µs) of every span called `name` whose parent is
    /// `parent`.
    pub fn durations_under_us(&self, name: &str, parent: u64) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(Span::us)
            .collect()
    }

    /// Re-parents each `child`-named span without a parent onto the
    /// `parent`-named span of the same lane whose interval contains it.
    /// Used where the child is timed inside a call that cannot see its
    /// caller's span (a backend called from inside the training loop);
    /// matching lanes keeps a child of one thread off another thread's
    /// concurrent span.
    pub fn adopt(&self, parent: &str, child: &str) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        let mut parents: Vec<(u64, u64, u64, u64)> = spans
            .iter()
            .filter(|s| s.name == parent)
            .map(|s| (s.lane, s.start, s.end, s.id))
            .collect();
        parents.sort_unstable();
        for span in spans
            .iter_mut()
            .filter(|s| s.name == child && s.parent.is_none())
        {
            let i = parents
                .partition_point(|&(lane, start, _, _)| (lane, start) <= (span.lane, span.start));
            if let Some(&(lane, _, end, id)) = i.checked_sub(1).map(|i| &parents[i]) {
                if lane == span.lane && span.end <= end {
                    span.parent = Some(id);
                }
            }
        }
    }

    /// Self time (µs) of every span called `name`: its duration minus the
    /// part of its interval covered by its children.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids = children.remove(&s.id).unwrap_or_default();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start);
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end.saturating_sub(s.start) - covered.min(s.end - s.start)) as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON line to `path` (creating parents).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":\"{}\",\"id\":{},\"parent\":{},\"lane\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.trace_id, s.id, parent, s.lane, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let trace = Trace::new(true, "t".into());
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let parent = trace.reserve();
        trace.record("child", Some(parent), at(10), at(40));
        trace.record("child", Some(parent), at(30), at(60)); // overlaps the first
        trace.record_as(parent, "parent", None, at(0), at(100));
        let self_us = trace.self_times_us("parent");
        assert_eq!(self_us.len(), 1);
        assert!((self_us[0] - 50.0).abs() < 1e-9, "{self_us:?}");
    }

    #[test]
    fn adopt_links_children_by_containment() {
        let trace = Trace::new(true, "t".into());
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        trace.record("outer", None, at(0), at(10));
        trace.record("outer", None, at(20), at(30));
        trace.record("inner", None, at(22), at(25));
        trace.record("inner", None, at(12), at(14)); // between outers
        trace.adopt("outer", "inner");
        let self_us = trace.self_times_us("outer");
        assert_eq!(self_us, vec![10.0, 7.0]);
    }

    #[test]
    fn adopt_stays_within_a_lane() {
        let trace = Trace::new(true, "t".into());
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let (a, b) = (trace.reserve(), trace.reserve());
        trace.record_on(1, a, "outer", None, at(0), at(100));
        trace.record_on(2, b, "outer", None, at(10), at(90));
        // Inside both intervals, but run on lane 1: only lane 1's span
        // may adopt it, although lane 2's started later.
        trace.record_on(1, trace.reserve(), "inner", None, at(20), at(50));
        trace.adopt("outer", "inner");
        assert_eq!(trace.self_times_us("outer"), vec![70.0, 80.0]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let trace = Trace::new(false, "t".into());
        let now = Instant::now();
        assert_eq!(trace.record("x", None, now, now), 0);
        assert_eq!(trace.time("x", None, || 7), 7);
        assert!(trace.spans().is_empty());
    }
}
