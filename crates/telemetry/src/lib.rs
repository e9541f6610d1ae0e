//! # lmi-telemetry — observability for the LMI simulation pipeline
//!
//! The paper's evaluation (Figs. 1–13, Table II) is built from instruction,
//! memory and check counters; this crate is where those measurements live
//! once the simulator produces them:
//!
//! * [`CounterRegistry`] — structured counters with per-SM, per-warp and
//!   per-mechanism scopes, absorbing what `SimStats` used to lump together;
//! * [`EventTracer`] — a bounded ring buffer of kernel-timeline events
//!   (warp launch/retire, memory transactions, OCU checks, EC faults) that
//!   exports Chrome trace-event JSON loadable in Perfetto;
//! * [`ForensicsLog`] — provenance for LMI's delayed termination (§XII-A):
//!   the simulator keeps one per kernel run, records the pc/op of each OCU
//!   poisoning and, when the EC later faults on that lane, matches it into
//!   a [`ForensicsRecord`] carrying the poison-to-fault latency in cycles
//!   and instructions;
//! * [`json`] — a hand-rolled JSON value, serializer and parser (no serde;
//!   keeps the workspace buildable offline) used by the bench binaries'
//!   `--json` reports and by CI's validity check;
//! * [`prng`] — a tiny deterministic SplitMix64 generator used for trace
//!   sampling and by the workspace's randomized property tests (replacing
//!   the external `proptest`/`rand` dependencies);
//! * [`profiler`] — log-bucketed latency [`Histogram`]s with exact merge,
//!   hot-PC tables and warp-state occupancy profiles filled by the
//!   engine's cycle-driven sampling hook;
//! * [`export`] — [`MetricsFrame`], a diffable snapshot of every counter,
//!   histogram and profile, rendered as Prometheus text exposition or as
//!   a JSON document.
//!
//! The crate depends only on `std`, so every other crate — including the
//! leaf ISA crate — can use it from tests without dependency cycles.

pub mod export;
pub mod forensics;
pub mod json;
pub mod prng;
pub mod profiler;
pub mod registry;
pub mod tracer;

pub use export::{parse_prometheus, MetricsFrame, PromSample};
pub use forensics::{FaultEvent, ForensicsLog, ForensicsRecord, PoisonEvent};
pub use json::Json;
pub use prng::SplitMix64;
pub use profiler::{
    Histogram, HistogramRegistry, KernelProfile, PcProfile, SmProfile, WarpState, WARP_STATES,
    WARP_STATE_NAMES,
};
pub use registry::{CounterRegistry, Scope};
pub use tracer::{EventTracer, TraceEventKind, TraceRecord};

/// The counters and timeline the simulator emits, bundled so the pipeline
/// threads a single `&mut TelemetrySink` instead of two references. A
/// sink may outlive many runs (a runtime session reuses one); nothing in
/// it carries state from one run into the next.
#[derive(Debug)]
pub struct TelemetrySink {
    /// Scoped counters.
    pub counters: CounterRegistry,
    /// Kernel-timeline ring buffer.
    pub tracer: EventTracer,
}

impl TelemetrySink {
    /// A sink with timeline tracing enabled (ring capacity `trace_capacity`).
    pub fn with_trace_capacity(trace_capacity: usize) -> TelemetrySink {
        TelemetrySink { counters: CounterRegistry::new(), tracer: EventTracer::new(trace_capacity) }
    }

    /// A sink that keeps counters but drops timeline events — the default
    /// for untraced runs, where per-event recording would cost more than
    /// the simulation itself.
    pub fn counters_only() -> TelemetrySink {
        TelemetrySink { counters: CounterRegistry::new(), tracer: EventTracer::disabled() }
    }

    /// A sink that drops counters and timeline events. Forensics do not
    /// flow through a sink: the run matches poisons to faults itself, so
    /// `SimStats` reports them even on untelemetered runs.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink { counters: CounterRegistry::disabled(), tracer: EventTracer::disabled() }
    }
}

impl Default for TelemetrySink {
    fn default() -> TelemetrySink {
        TelemetrySink::counters_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sink_keeps_counters_but_not_events() {
        let mut sink = TelemetrySink::default();
        sink.counters.add(Scope::Gpu, "cycles", 10);
        sink.tracer.complete("x", TraceEventKind::MemTransaction, 0, 0, 0, 5);
        assert_eq!(sink.counters.get(Scope::Gpu, "cycles"), 10);
        assert_eq!(sink.tracer.len(), 0, "disabled tracer records nothing");
    }
}
