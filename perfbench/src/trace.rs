//! Spans around the benchmark's calls into each layer, and a timing
//! wrapper for mechanism hooks.
//!
//! Spans stay in memory and are written out once, at the end of a traced
//! run. A disabled [`Tracer`] records nothing, so timed runs pay one
//! branch per call site.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use lmi_sim::{IntCheck, Mechanism, MemAccessCtx, MemCheck};
use lmi_telemetry::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock; equal to `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Op the span belongs to (the spans of one op share it).
    pub op: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (which must be the innermost open span); returns its
    /// duration in nanoseconds (0 when tracing is off).
    pub fn close(&mut self, id: SpanId) -> u64 {
        let Some(id) = id else { return 0 };
        let span = &mut self.spans[id];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        span.end_ns - span.start_ns
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name, op);
        let out = f(self);
        self.close(id);
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Summed duration in nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).sum()
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed over spans of that name (nanoseconds).
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// The span list and the self-time table as one JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut j = Json::obj()
                    .with("name", s.name)
                    .with("op", s.op)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns);
                if let Some(p) = s.parent {
                    j.set("parent", p);
                }
                j
            })
            .collect::<Vec<_>>();
        let mut self_ms = Json::obj();
        for (name, ns) in self.self_times_ns() {
            self_ms.set(name, ns as f64 / 1e6);
        }
        Json::obj().with("self_ms", self_ms).with("spans", Json::Arr(spans))
    }
}

/// Time one hook call in this many; every call is counted.
pub const HOOK_SAMPLE_EVERY: u64 = 16;

/// Mean cost of timing an empty region, subtracted from each timed hook
/// call so the clock reads are not charged to the mechanism.
fn clock_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        const N: u64 = 20_000;
        let total: u64 = (0..N)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(t0).elapsed().as_nanos() as u64
            })
            .sum();
        total / N
    })
}

/// Nanoseconds since `t0`, less the clock's own cost.
fn hook_ns(t0: Instant) -> u64 {
    (t0.elapsed().as_nanos() as u64).saturating_sub(clock_cost_ns())
}

/// Call counts and sampled time of the two mechanism hooks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStats {
    /// `on_mem_access` calls.
    pub mem_calls: u64,
    /// `on_mem_access` calls that were timed.
    pub mem_timed: u64,
    /// Nanoseconds spent in the timed `on_mem_access` calls.
    pub mem_ns: u64,
    /// `on_marked_int` calls.
    pub int_calls: u64,
    /// `on_marked_int` calls that were timed.
    pub int_timed: u64,
    /// Nanoseconds spent in the timed `on_marked_int` calls.
    pub int_ns: u64,
}

impl HookStats {
    /// Mean nanoseconds per `on_mem_access` call (from the timed sample).
    pub fn mem_ns_per_call(&self) -> f64 {
        crate::stats::ratio(self.mem_ns as f64, self.mem_timed as f64)
    }

    /// Mean nanoseconds per `on_marked_int` call (from the timed sample).
    pub fn int_ns_per_call(&self) -> f64 {
        crate::stats::ratio(self.int_ns as f64, self.int_timed as f64)
    }

    /// Estimated nanoseconds spent in both hooks over every call.
    pub fn estimated_ns(&self) -> f64 {
        self.mem_calls as f64 * self.mem_ns_per_call()
            + self.int_calls as f64 * self.int_ns_per_call()
    }

    /// Adds `other`'s counts into `self`.
    pub fn absorb(&mut self, other: &HookStats) {
        self.mem_calls += other.mem_calls;
        self.mem_timed += other.mem_timed;
        self.mem_ns += other.mem_ns;
        self.int_calls += other.int_calls;
        self.int_timed += other.int_timed;
        self.int_ns += other.int_ns;
    }
}

/// Delegates every [`Mechanism`] method to `inner`, counting hook calls and
/// timing one in [`HOOK_SAMPLE_EVERY`].
pub struct TimedMechanism<'a> {
    /// The real mechanism.
    pub inner: &'a mut dyn Mechanism,
    /// Counts for this run.
    pub hooks: HookStats,
}

impl Mechanism for TimedMechanism<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_marked_int(&mut self, input: u64, result: u64) -> IntCheck {
        self.hooks.int_calls += 1;
        if !self.hooks.int_calls.is_multiple_of(HOOK_SAMPLE_EVERY) {
            return self.inner.on_marked_int(input, result);
        }
        let t0 = Instant::now();
        let out = self.inner.on_marked_int(input, result);
        self.hooks.int_ns += hook_ns(t0);
        self.hooks.int_timed += 1;
        out
    }

    fn marked_int_delay(&self) -> u32 {
        self.inner.marked_int_delay()
    }

    fn on_mem_access(&mut self, ctx: &MemAccessCtx) -> MemCheck {
        self.hooks.mem_calls += 1;
        if !self.hooks.mem_calls.is_multiple_of(HOOK_SAMPLE_EVERY) {
            return self.inner.on_mem_access(ctx);
        }
        let t0 = Instant::now();
        let out = self.inner.on_mem_access(ctx);
        self.hooks.mem_ns += hook_ns(t0);
        self.hooks.mem_timed += 1;
        out
    }

    fn nullifies_on_free(&self) -> bool {
        self.inner.nullifies_on_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span("op", 0, |tr| {
            tr.span("child", 0, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let selfs = tr.self_times_ns();
        let op = tr.total_ns("op");
        let child = tr.total_ns("child");
        assert_eq!(selfs["op"] as f64, op - child);
        assert_eq!(selfs["child"] as f64, child);
        assert!(child >= 2e6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.span("op", 0, |_| ());
        assert!(tr.durations_ms("op").is_empty());
    }
}
