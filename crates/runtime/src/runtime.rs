//! The runtime core: stream submission, the copy engines, and the
//! cohort scheduler that multiplexes kernels onto disjoint SM partitions.
//!
//! # Execution model
//!
//! Host calls ([`Runtime::memcpy_h2d`], [`Runtime::launch`], …) only
//! *enqueue* work; nothing simulates until [`Runtime::synchronize`].
//! Synchronize runs a fixpoint loop over three deterministic steps:
//!
//! 1. **Events** — `RecordEvent` at a stream head stamps the event with
//!    the stream's logical clock; `WaitEvent` blocks the stream until the
//!    event is stamped, then advances the clock to the stamp.
//! 2. **Copies** — each direction has one engine; among streams whose
//!    head is a copy of that direction, the engine picks the transfer
//!    with the least `(start_cycle, stream_id)` and serializes it.
//! 3. **Kernels** — every stream with a kernel at its head joins a
//!    *cohort*: the GPU's SMs are split into disjoint partitions
//!    proportional to warp demand ([`crate::scheduler::partition_sms`])
//!    and the whole cohort runs in **one** resident engine invocation
//!    ([`Gpu::run_resident`]), so concurrent kernels contend for the
//!    shared L2/DRAM while keeping per-kernel mechanisms and stats.
//!
//! Every decision is a pure function of queue contents and simulated
//! cycles — never host time or host thread interleaving — so a runtime
//! program produces bit-identical reports at any `sim_threads` setting.

use std::collections::BTreeMap;
use std::ops::Range;

use lmi_alloc::AllocError;
use lmi_core::DevicePtr;
use lmi_sim::{
    Gpu, GpuConfig, Launch, LaunchError, LmiMechanism, Mechanism, NullMechanism, ResidentKernel,
    SimStats,
};
use lmi_telemetry::{
    CounterRegistry, EventTracer, HistogramRegistry, Json, KernelProfile, MetricsFrame, Scope,
    TelemetrySink, TraceEventKind,
};

use crate::copy::CopyConfig;
use crate::metrics::{MetricsSnapshot, TenantSlo};
use crate::scheduler::partition_sms;
use crate::stream::{CopyHandle, EventId, StreamId, StreamOp, StreamState};
use crate::tenant::Tenant;

/// Why a host submission was rejected (the queue is left untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// No stream with this id exists.
    UnknownStream(StreamId),
    /// No event with this id exists.
    UnknownEvent(EventId),
    /// No tenant with this id exists.
    UnknownTenant(usize),
    /// The launch cannot run on this GPU even alone; satellite of the
    /// paper's robustness story — a bad tenant must not crash the
    /// simulation, it gets a typed rejection.
    Launch(LaunchError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownStream(s) => write!(f, "unknown stream {s}"),
            SubmitError::UnknownEvent(e) => write!(f, "unknown event {e}"),
            SubmitError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            SubmitError::Launch(e) => write!(f, "launch rejected: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why [`Runtime::synchronize`] could not drain the queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncError {
    /// A stream is blocked on an event that no remaining op will record.
    Deadlock {
        /// The first blocked stream (lowest id).
        stream: StreamId,
        /// The event it waits on, if its head op is a wait.
        event: Option<EventId>,
    },
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::Deadlock { stream, event: Some(e) } => {
                write!(f, "deadlock: stream {stream} waits on event {e}, never recorded")
            }
            SyncError::Deadlock { stream, event: None } => {
                write!(f, "deadlock: stream {stream} cannot make progress")
            }
        }
    }
}

impl std::error::Error for SyncError {}

/// One kernel execution, as the runtime scheduled it.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Stream that submitted the kernel.
    pub stream: StreamId,
    /// Tenant owning that stream.
    pub tenant: usize,
    /// Kernel (program) name.
    pub name: String,
    /// SM partition the kernel ran on.
    pub partition: Range<usize>,
    /// Absolute cycle the kernel was admitted.
    pub started_at: u64,
    /// Absolute cycle its last warp retired.
    pub completed_at: u64,
    /// Per-kernel statistics (cycles measured from admission).
    pub stats: SimStats,
}

/// One copy-engine transfer, as the runtime scheduled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyReport {
    /// Stream that submitted the copy.
    pub stream: StreamId,
    /// Tenant owning that stream.
    pub tenant: usize,
    /// `true` for host→device.
    pub h2d: bool,
    /// Modeled payload size.
    pub bytes: u64,
    /// Absolute cycle the engine accepted the transfer.
    pub started_at: u64,
    /// Absolute cycle the transfer finished.
    pub completed_at: u64,
}

/// Everything the runtime executed, in completion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeReport {
    /// Kernel executions.
    pub kernels: Vec<KernelReport>,
    /// Copy-engine transfers.
    pub copies: Vec<CopyReport>,
    /// Cycle at which the last queued op finished (the makespan of the
    /// whole submitted program).
    pub total_cycles: u64,
}

impl RuntimeReport {
    /// Machine-readable export (each mix's `concurrent` record in
    /// `runtimebench --json`).
    pub fn to_json(&self) -> Json {
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                Json::obj()
                    .with("stream", k.stream as u64)
                    .with("tenant", k.tenant as u64)
                    .with("name", k.name.as_str())
                    .with("sm_first", k.partition.start as u64)
                    .with("sm_count", k.partition.len() as u64)
                    .with("started_at", k.started_at)
                    .with("completed_at", k.completed_at)
                    .with("cycles", k.stats.cycles)
                    .with("violations", k.stats.violations.len() as u64)
            })
            .collect();
        let copies = self
            .copies
            .iter()
            .map(|c| {
                Json::obj()
                    .with("stream", c.stream as u64)
                    .with("tenant", c.tenant as u64)
                    .with("dir", if c.h2d { "h2d" } else { "d2h" })
                    .with("bytes", c.bytes)
                    .with("started_at", c.started_at)
                    .with("completed_at", c.completed_at)
            })
            .collect();
        Json::obj()
            .with("total_cycles", self.total_cycles)
            .with("kernels", Json::Arr(kernels))
            .with("copies", Json::Arr(copies))
    }
}

/// The asynchronous host runtime (the `cudaStream_t` layer of the
/// reproduction).
pub struct Runtime {
    gpu: Gpu,
    copy_cfg: CopyConfig,
    tenants: Vec<Tenant>,
    streams: Vec<StreamState>,
    /// `events[e]` is the cycle event `e` was recorded at, once recorded.
    events: Vec<Option<u64>>,
    /// Cycle at which the previous kernel cohort drained (cohorts do not
    /// overlap on the SMs; copies overlap freely).
    gpu_free_at: u64,
    h2d_busy_until: u64,
    d2h_busy_until: u64,
    d2h_results: Vec<Option<Vec<u64>>>,
    report: RuntimeReport,
    sink: TelemetrySink,
    /// Latency histograms: kernel queue-wait / execution, copy durations
    /// and poison-to-fault, each at GPU, stream and tenant scope.
    hists: HistogramRegistry,
    /// Sampling profiles merged across launches, keyed by kernel name
    /// (empty unless the GPU config sets `sample_period`).
    profiles: BTreeMap<String, KernelProfile>,
}

impl Runtime {
    /// A runtime over a fresh GPU, counters on, timeline tracing off.
    pub fn new(cfg: GpuConfig) -> Runtime {
        Runtime {
            gpu: Gpu::new(cfg),
            copy_cfg: CopyConfig::default(),
            tenants: Vec::new(),
            streams: Vec::new(),
            events: Vec::new(),
            gpu_free_at: 0,
            h2d_busy_until: 0,
            d2h_busy_until: 0,
            d2h_results: Vec::new(),
            report: RuntimeReport::default(),
            sink: TelemetrySink::counters_only(),
            hists: HistogramRegistry::new(),
            profiles: BTreeMap::new(),
        }
    }

    /// Enables timeline tracing (kernel/copy spans plus the simulator's
    /// warp/memory spans) with the given ring capacity.
    pub fn with_tracing(mut self, capacity: usize) -> Runtime {
        self.sink = TelemetrySink::with_trace_capacity(capacity);
        self
    }

    /// Registers a tenant; `protected` selects LMI vs the unprotected
    /// baseline. Returns the tenant id.
    pub fn add_tenant(&mut self, protected: bool) -> usize {
        let id = self.tenants.len();
        self.tenants.push(if protected { Tenant::protected(id) } else { Tenant::unprotected(id) });
        id
    }

    /// Creates a stream owned by `tenant`.
    pub fn create_stream(&mut self, tenant: usize) -> Result<StreamId, SubmitError> {
        if tenant >= self.tenants.len() {
            return Err(SubmitError::UnknownTenant(tenant));
        }
        let id = self.streams.len();
        self.streams.push(StreamState::new(id, tenant));
        Ok(id)
    }

    /// Creates an (unrecorded) event.
    pub fn create_event(&mut self) -> EventId {
        self.events.push(None);
        self.events.len() - 1
    }

    /// A tenant, by id.
    pub fn tenant(&self, id: usize) -> &Tenant {
        &self.tenants[id]
    }

    /// Mutable tenant access (host-side allocation against the tenant's
    /// own arena, e.g. `lmi_workloads::prepare_in`).
    pub fn tenant_mut(&mut self, id: usize) -> &mut Tenant {
        &mut self.tenants[id]
    }

    /// Allocates `size` bytes in the tenant's global arena
    /// (`cudaMalloc`); the returned pointer carries LMI extent bits when
    /// the tenant is protected.
    pub fn malloc(&mut self, tenant: usize, size: u64) -> Result<u64, AllocError> {
        self.tenants[tenant].alloc(size)
    }

    /// Frees a tenant allocation; returns the extent-invalidated pointer.
    pub fn free(&mut self, tenant: usize, ptr: u64) -> Result<u64, AllocError> {
        self.tenants[tenant].free(ptr)
    }

    fn check_stream(&self, stream: StreamId) -> Result<(), SubmitError> {
        if stream >= self.streams.len() {
            return Err(SubmitError::UnknownStream(stream));
        }
        Ok(())
    }

    fn check_event(&self, event: EventId) -> Result<(), SubmitError> {
        if event >= self.events.len() {
            return Err(SubmitError::UnknownEvent(event));
        }
        Ok(())
    }

    /// Enqueues a host→device copy of `words` to the device pointer
    /// `dst` (extent bits tolerated; 8 bytes per word).
    pub fn memcpy_h2d(
        &mut self,
        stream: StreamId,
        dst: u64,
        words: &[u64],
    ) -> Result<(), SubmitError> {
        self.check_stream(stream)?;
        let bytes = words.len() as u64 * 8;
        self.streams[stream].ops.push_back(StreamOp::H2D { ptr: dst, bytes, data: words.to_vec() });
        Ok(())
    }

    /// Enqueues a device→host copy of `bytes` from `src`; redeem the
    /// handle with [`Runtime::copy_result`] after synchronizing.
    pub fn memcpy_d2h(
        &mut self,
        stream: StreamId,
        src: u64,
        bytes: u64,
    ) -> Result<CopyHandle, SubmitError> {
        self.check_stream(stream)?;
        let handle = CopyHandle(self.d2h_results.len());
        self.d2h_results.push(None);
        self.streams[stream].ops.push_back(StreamOp::D2H { ptr: src, bytes, handle });
        Ok(handle)
    }

    /// Enqueues a kernel launch. The launch is validated against the
    /// whole GPU up front — geometry *and* decodability: a kernel that
    /// could never run (or whose program carries corrupted immediates)
    /// is rejected *now* (and counted under `rejected` for the stream
    /// and tenant) instead of panicking inside the simulator.
    pub fn launch(&mut self, stream: StreamId, launch: Launch) -> Result<(), SubmitError> {
        self.check_stream(stream)?;
        let checked = launch.validate(self.gpu.config()).and_then(|()| {
            lmi_isa::DecodedStream::lower(&launch.program).map(|_| ()).map_err(Into::into)
        });
        if let Err(e) = checked {
            let tenant = self.streams[stream].tenant;
            self.sink.counters.inc(Scope::Stream(stream), "rejected");
            self.sink.counters.inc(Scope::Tenant(tenant), "rejected");
            return Err(SubmitError::Launch(e));
        }
        self.streams[stream].kernel_seq += 1;
        self.streams[stream].ops.push_back(StreamOp::Kernel { launch: Box::new(launch) });
        Ok(())
    }

    /// Enqueues an event record: when reached, the event is stamped with
    /// the stream's clock (every prior op's completion cycle).
    pub fn record_event(&mut self, stream: StreamId, event: EventId) -> Result<(), SubmitError> {
        self.check_stream(stream)?;
        self.check_event(event)?;
        self.streams[stream].ops.push_back(StreamOp::RecordEvent { event });
        Ok(())
    }

    /// Enqueues an event wait: the stream stalls until the event is
    /// recorded (by any stream), then resumes no earlier than the
    /// recorded cycle. Unlike CUDA's capture-at-call semantics, an
    /// unrecorded event *blocks* — which is what cross-stream dependency
    /// graphs want, and keeps the schedule independent of host call
    /// order.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) -> Result<(), SubmitError> {
        self.check_stream(stream)?;
        self.check_event(event)?;
        self.streams[stream].ops.push_back(StreamOp::WaitEvent { event });
        Ok(())
    }

    /// Drains every stream to completion (`cudaDeviceSynchronize`).
    ///
    /// Deterministic: the resulting report, counters and event stamps
    /// depend only on what was submitted, never on `sim_threads`.
    pub fn synchronize(&mut self) -> Result<(), SyncError> {
        loop {
            let mut progress = false;
            self.drain_event_ops(&mut progress);
            self.schedule_copies(&mut progress);
            self.admit_cohort(&mut progress);
            if progress {
                continue;
            }
            if let Some(s) = self.streams.iter().find(|s| !s.ops.is_empty()) {
                let event = match s.ops.front() {
                    Some(StreamOp::WaitEvent { event }) => Some(*event),
                    _ => None,
                };
                return Err(SyncError::Deadlock { stream: s.id, event });
            }
            break;
        }
        self.report.total_cycles = self
            .streams
            .iter()
            .map(|s| s.ready_at)
            .chain([self.gpu_free_at, self.h2d_busy_until, self.d2h_busy_until])
            .max()
            .unwrap_or(0);
        Ok(())
    }

    /// Step 1: retire record/wait ops at stream heads.
    fn drain_event_ops(&mut self, progress: &mut bool) {
        for i in 0..self.streams.len() {
            loop {
                let head = match self.streams[i].ops.front() {
                    Some(StreamOp::RecordEvent { event }) => (true, *event),
                    Some(StreamOp::WaitEvent { event }) => (false, *event),
                    _ => break,
                };
                match head {
                    (true, e) => {
                        self.events[e] = Some(self.streams[i].ready_at);
                        self.streams[i].ops.pop_front();
                        *progress = true;
                    }
                    (false, e) => match self.events[e] {
                        Some(at) => {
                            let s = &mut self.streams[i];
                            s.ready_at = s.ready_at.max(at);
                            s.ops.pop_front();
                            *progress = true;
                        }
                        None => break,
                    },
                }
            }
        }
    }

    /// Step 2: serialize head-of-stream copies onto the two DMA engines,
    /// earliest `(start, stream)` first.
    fn schedule_copies(&mut self, progress: &mut bool) {
        loop {
            let mut any = false;
            for h2d in [true, false] {
                let busy = if h2d { self.h2d_busy_until } else { self.d2h_busy_until };
                let mut best: Option<(u64, StreamId)> = None;
                for s in &self.streams {
                    let head_matches = matches!(
                        (s.ops.front(), h2d),
                        (Some(StreamOp::H2D { .. }), true) | (Some(StreamOp::D2H { .. }), false)
                    );
                    if head_matches {
                        let cand = (s.ready_at.max(busy), s.id);
                        if best.is_none_or(|b| cand < b) {
                            best = Some(cand);
                        }
                    }
                }
                if let Some((start, sid)) = best {
                    self.execute_copy(sid, start, h2d);
                    any = true;
                    *progress = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    fn execute_copy(&mut self, sid: StreamId, start: u64, h2d: bool) {
        let tenant = self.streams[sid].tenant;
        let op = self.streams[sid].ops.pop_front().expect("caller checked the head op");
        let (bytes, end) = match op {
            StreamOp::H2D { ptr, bytes, data } => {
                let end = start + self.copy_cfg.cost(bytes);
                let addr = DevicePtr::from_raw(ptr).addr();
                for (i, w) in data.iter().enumerate() {
                    self.gpu.memory.write(addr + 8 * i as u64, *w, 8);
                }
                self.h2d_busy_until = end;
                (bytes, end)
            }
            StreamOp::D2H { ptr, bytes, handle } => {
                let end = start + self.copy_cfg.cost(bytes);
                let addr = DevicePtr::from_raw(ptr).addr();
                let words = bytes.div_ceil(8) as usize;
                let mut out = Vec::with_capacity(words);
                for i in 0..words {
                    out.push(self.gpu.memory.read(addr + 8 * i as u64, 8));
                }
                self.d2h_results[handle.0] = Some(out);
                self.d2h_busy_until = end;
                (bytes, end)
            }
            _ => unreachable!("caller checked the head op"),
        };
        self.streams[sid].ready_at = end;
        for scope in [Scope::Gpu, Scope::Stream(sid), Scope::Tenant(tenant)] {
            self.hists.record(scope, "copy_cycles", end - start);
        }
        self.sink.counters.inc(Scope::Stream(sid), "copies");
        self.sink.counters.add(Scope::Stream(sid), "copy_bytes", bytes);
        self.sink.counters.inc(Scope::Tenant(tenant), "copies");
        self.sink.counters.add(Scope::Tenant(tenant), "copy_bytes", bytes);
        // Copy engines render as pseudo-SMs after the real ones.
        let engine = self.gpu.config().num_sms + usize::from(!h2d);
        self.sink.tracer.complete_with(
            if h2d { "memcpy h2d" } else { "memcpy d2h" },
            TraceEventKind::CopySpan,
            engine,
            sid,
            start,
            end - start,
            &[("stream", sid as u64), ("tenant", tenant as u64), ("bytes", bytes)],
        );
        self.report.copies.push(CopyReport {
            stream: sid,
            tenant,
            h2d,
            bytes,
            started_at: start,
            completed_at: end,
        });
    }

    /// Step 3: run every head-of-stream kernel as one resident cohort on
    /// disjoint SM partitions.
    fn admit_cohort(&mut self, progress: &mut bool) {
        let num_sms = self.gpu.config().num_sms;
        let mut cohort: Vec<StreamId> = self
            .streams
            .iter()
            .filter(|s| matches!(s.ops.front(), Some(StreamOp::Kernel { .. })))
            .map(|s| s.id)
            .take(num_sms)
            .collect();
        if cohort.is_empty() {
            return;
        }
        let demand = |streams: &[StreamState], sid: StreamId| -> usize {
            match streams[sid].ops.front() {
                Some(StreamOp::Kernel { launch }) => launch.grid_blocks * launch.warps_per_block(),
                _ => unreachable!("cohort members have a kernel at head"),
            }
        };
        let mut demands: Vec<usize> =
            cohort.iter().map(|&sid| demand(&self.streams, sid)).collect();
        let mut parts = partition_sms(num_sms, &demands);
        // A kernel whose proportional slice is too narrow (its fullest SM
        // would overflow warp capacity) is deferred to a later, smaller
        // cohort; a cohort of one spans the full GPU, which the launch was
        // validated against at submit time.
        while cohort.len() > 1 {
            let mut dropped = None;
            for (i, &sid) in cohort.iter().enumerate() {
                let fits = match self.streams[sid].ops.front() {
                    Some(StreamOp::Kernel { launch }) => {
                        launch.validate_on(self.gpu.config(), parts[i].len()).is_ok()
                    }
                    _ => unreachable!("cohort members have a kernel at head"),
                };
                if !fits {
                    dropped = Some(i);
                    break;
                }
            }
            match dropped {
                Some(i) => {
                    cohort.remove(i);
                    demands.remove(i);
                    parts = partition_sms(num_sms, &demands);
                }
                None => break,
            }
        }
        // Admission: a kernel starts when its stream is ready and the
        // previous cohort has drained; the cohort's earliest start is the
        // engine's cycle origin, everyone else gets a start offset.
        let starts: Vec<u64> =
            cohort.iter().map(|&sid| self.streams[sid].ready_at.max(self.gpu_free_at)).collect();
        let origin = *starts.iter().min().expect("cohort is non-empty");
        // Each job runs under its tenant's mechanism: LMI for a protected
        // tenant, the null baseline otherwise. Both are stateless, so a
        // fresh instance per job behaves as one per tenant would.
        let mut lmi = vec![LmiMechanism::default_config(); cohort.len()];
        let mut null = vec![NullMechanism; cohort.len()];
        let outcome = {
            let Runtime { gpu, tenants, streams, sink, .. } = self;
            let mut jobs: Vec<ResidentKernel<'_>> = Vec::with_capacity(cohort.len());
            for (((&sid, part), &start), (lmi, null)) in
                cohort.iter().zip(&parts).zip(&starts).zip(lmi.iter_mut().zip(&mut null))
            {
                let launch = match streams[sid].ops.front() {
                    Some(StreamOp::Kernel { launch }) => &**launch,
                    _ => unreachable!("cohort members have a kernel at head"),
                };
                let tenant = &tenants[streams[sid].tenant];
                let mechanism: &mut dyn Mechanism = if tenant.is_protected() { lmi } else { null };
                jobs.push(ResidentKernel {
                    launch,
                    mechanism,
                    heap: Some(&tenant.heap),
                    partition: part.clone(),
                    start_offset: start - origin,
                });
            }
            gpu.run_resident(&mut jobs, sink)
                .expect("cohort launches validated at submit and admission")
        };
        self.gpu_free_at = origin + outcome.makespan;
        for ((i, &sid), outcome) in cohort.iter().enumerate().zip(outcome.kernels) {
            let tenant = self.streams[sid].tenant;
            let launch = match self.streams[sid].ops.pop_front() {
                Some(StreamOp::Kernel { launch }) => launch,
                _ => unreachable!("cohort members have a kernel at head"),
            };
            let started = starts[i];
            let completed = origin + outcome.completed_at;
            // The stream was ready at `ready_at`; the kernel only started
            // once the previous cohort drained — that gap is queue wait.
            let queue_wait = started.saturating_sub(self.streams[sid].ready_at);
            self.streams[sid].ready_at = completed;
            let stats = outcome.stats;
            let violations = stats.violations.len() as u64;
            for scope in [Scope::Gpu, Scope::Stream(sid), Scope::Tenant(tenant)] {
                self.hists.record(scope, "kernel_queue_wait", queue_wait);
                self.hists.record(scope, "kernel_exec_cycles", completed - started);
                for rec in &stats.forensics {
                    self.hists.record(scope, "poison_to_fault", rec.latency_cycles());
                }
            }
            if !stats.profile.is_empty() {
                self.profiles.entry(launch.program.name.clone()).or_default().merge(&stats.profile);
            }
            self.sink.counters.inc(Scope::Stream(sid), "kernels");
            self.sink.counters.add(Scope::Stream(sid), "kernel_cycles", stats.cycles);
            self.sink.counters.add(Scope::Stream(sid), "violations", violations);
            self.sink.counters.inc(Scope::Tenant(tenant), "kernels");
            self.sink.counters.add(Scope::Tenant(tenant), "kernel_cycles", stats.cycles);
            self.sink.counters.add(Scope::Tenant(tenant), "violations", violations);
            self.sink.tracer.complete_with(
                "kernel",
                TraceEventKind::KernelSpan,
                parts[i].start,
                sid,
                started,
                completed.saturating_sub(started).max(1),
                &[
                    ("stream", sid as u64),
                    ("tenant", tenant as u64),
                    ("sm_first", parts[i].start as u64),
                    ("sm_count", parts[i].len() as u64),
                    ("violations", violations),
                ],
            );
            self.report.kernels.push(KernelReport {
                stream: sid,
                tenant,
                name: launch.program.name.clone(),
                partition: parts[i].clone(),
                started_at: started,
                completed_at: completed,
                stats,
            });
        }
        *progress = true;
    }

    /// The data a synchronized D2H copy delivered (`None` before the copy
    /// has run).
    pub fn copy_result(&self, handle: CopyHandle) -> Option<&[u64]> {
        self.d2h_results.get(handle.0)?.as_deref()
    }

    /// The cycle an event was recorded at (`None` if unrecorded).
    pub fn event_time(&self, event: EventId) -> Option<u64> {
        self.events.get(event).copied().flatten()
    }

    /// Everything executed so far.
    pub fn report(&self) -> &RuntimeReport {
        &self.report
    }

    /// The scoped counter registry (per-stream / per-tenant attribution).
    pub fn counters(&self) -> &CounterRegistry {
        &self.sink.counters
    }

    /// The timeline tracer (empty unless [`Runtime::with_tracing`]).
    pub fn tracer(&self) -> &EventTracer {
        &self.sink.tracer
    }

    /// The latency histograms (kernel queue-wait / execution, copy
    /// durations, poison-to-fault) at GPU, stream and tenant scope.
    pub fn histograms(&self) -> &HistogramRegistry {
        &self.hists
    }

    /// Sampling profiles merged across launches, keyed by kernel name
    /// (empty unless the GPU config sets `sample_period`).
    pub fn profiles(&self) -> &BTreeMap<String, KernelProfile> {
        &self.profiles
    }

    /// An owned, diffable snapshot of everything the session measured:
    /// every counter scope, histogram and profile, plus the per-tenant
    /// SLO table (violation/rejection rates, execution-latency tails).
    /// Take one before and one after a workload and
    /// [`MetricsSnapshot::diff`] isolates that workload's activity.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let frame = MetricsFrame {
            counters: self.sink.counters.clone(),
            histograms: self.hists.clone(),
            profiles: self.profiles.clone(),
            dropped_trace_events: self.sink.tracer.dropped(),
        };
        let tenants = TenantSlo::from_frame(&frame, self.tenants.len());
        MetricsSnapshot { frame, total_cycles: self.report.total_cycles, tenants }
    }

    /// The underlying GPU (inspection: memory, caches, heap).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Reads device memory through a (possibly extent-tagged) pointer.
    pub fn read(&self, ptr: u64, offset: u64, width: u8) -> u64 {
        self.gpu.memory.read(DevicePtr::from_raw(ptr).addr() + offset, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_isa::{abi, Instruction, MemRef, ProgramBuilder, Reg};

    fn store_tid_kernel(name: &str) -> Launch {
        let mut b = ProgramBuilder::new(name);
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 3));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 8), Reg(0)));
        b.push(Instruction::exit());
        Launch::new(b.build()).grid(2).block(64)
    }

    #[test]
    fn copy_kernel_copy_roundtrip() {
        let mut rt = Runtime::new(GpuConfig::small());
        let t = rt.add_tenant(true);
        let s = rt.create_stream(t).unwrap();
        let buf = rt.malloc(t, 2048).unwrap();
        rt.memcpy_h2d(s, buf, &vec![7u64; 128]).unwrap();
        rt.launch(s, store_tid_kernel("tids").param(buf)).unwrap();
        let out = rt.memcpy_d2h(s, buf, 1024).unwrap();
        rt.synchronize().unwrap();
        let words = rt.copy_result(out).unwrap();
        assert_eq!(words.len(), 128);
        // TidX is block-local, so both blocks write slots 0..64; the tail
        // keeps the h2d fill value.
        for (i, &w) in words.iter().enumerate() {
            let expect = if i < 64 { i as u64 } else { 7 };
            assert_eq!(w, expect, "word {i}");
        }
        let r = rt.report();
        assert_eq!(r.kernels.len(), 1);
        assert_eq!(r.copies.len(), 2);
        // In-order stream: h2d < kernel < d2h.
        assert!(r.copies[0].completed_at <= r.kernels[0].started_at);
        assert!(r.kernels[0].completed_at <= r.copies[1].started_at);
        assert_eq!(rt.counters().get(Scope::Stream(s), "kernels"), 1);
        assert_eq!(rt.counters().get(Scope::Tenant(t), "copies"), 2);
    }

    #[test]
    fn two_streams_share_the_gpu_spatially() {
        let mut rt = Runtime::new(GpuConfig::small());
        let ta = rt.add_tenant(true);
        let tb = rt.add_tenant(true);
        let sa = rt.create_stream(ta).unwrap();
        let sb = rt.create_stream(tb).unwrap();
        let a = rt.malloc(ta, 2048).unwrap();
        let b = rt.malloc(tb, 2048).unwrap();
        rt.launch(sa, store_tid_kernel("a").param(a)).unwrap();
        rt.launch(sb, store_tid_kernel("b").param(b)).unwrap();
        rt.synchronize().unwrap();
        let r = rt.report();
        assert_eq!(r.kernels.len(), 2);
        let (ka, kb) = (&r.kernels[0], &r.kernels[1]);
        assert!(ka.partition.end <= kb.partition.start || kb.partition.end <= ka.partition.start);
        // Admitted together: both start at cycle 0 and overlap in time.
        assert_eq!(ka.started_at, 0);
        assert_eq!(kb.started_at, 0);
        // Both tenants' data landed.
        assert_eq!(rt.read(a, 8, 8), 1);
        assert_eq!(rt.read(b, 8, 8), 1);
    }

    #[test]
    fn events_order_work_across_streams() {
        let mut rt = Runtime::new(GpuConfig::small());
        let t = rt.add_tenant(false);
        let s0 = rt.create_stream(t).unwrap();
        let s1 = rt.create_stream(t).unwrap();
        let buf = rt.malloc(t, 2048).unwrap();
        let ev = rt.create_event();
        rt.launch(s0, store_tid_kernel("producer").param(buf)).unwrap();
        rt.record_event(s0, ev).unwrap();
        rt.wait_event(s1, ev).unwrap();
        rt.launch(s1, store_tid_kernel("consumer").param(buf)).unwrap();
        rt.synchronize().unwrap();
        let r = rt.report();
        assert_eq!(r.kernels.len(), 2);
        let at = rt.event_time(ev).unwrap();
        assert_eq!(at, r.kernels[0].completed_at, "event stamps the producer's finish");
        assert!(r.kernels[1].started_at >= at, "consumer admitted after the event");
    }

    #[test]
    fn waiting_on_an_unrecorded_event_deadlocks() {
        let mut rt = Runtime::new(GpuConfig::small());
        let t = rt.add_tenant(false);
        let s = rt.create_stream(t).unwrap();
        let ev = rt.create_event();
        rt.wait_event(s, ev).unwrap();
        assert_eq!(rt.synchronize(), Err(SyncError::Deadlock { stream: s, event: Some(ev) }));
    }

    #[test]
    fn impossible_launch_is_rejected_not_panicked() {
        let mut rt = Runtime::new(GpuConfig::small());
        let t = rt.add_tenant(true);
        let s = rt.create_stream(t).unwrap();
        let mut b = ProgramBuilder::new("huge");
        b.push(Instruction::exit());
        let cap = rt.gpu().config().max_warps_per_sm;
        let launch = Launch::new(b.build()).grid(1).block((cap + 1) * 32);
        let err = rt.launch(s, launch).unwrap_err();
        assert!(matches!(err, SubmitError::Launch(LaunchError::BlockTooLarge { .. })));
        assert_eq!(rt.counters().get(Scope::Stream(s), "rejected"), 1);
        rt.synchronize().unwrap();
        assert!(rt.report().kernels.is_empty());
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let mut rt = Runtime::new(GpuConfig::small());
        assert_eq!(rt.create_stream(0), Err(SubmitError::UnknownTenant(0)));
        let t = rt.add_tenant(true);
        let s = rt.create_stream(t).unwrap();
        assert_eq!(rt.memcpy_h2d(9, 0, &[]), Err(SubmitError::UnknownStream(9)));
        assert_eq!(rt.record_event(s, 5), Err(SubmitError::UnknownEvent(5)));
    }
}
