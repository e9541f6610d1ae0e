//! # lmi-runtime — an asynchronous host runtime over the LMI simulator
//!
//! The paper evaluates LMI one kernel at a time; real GPU deployments —
//! and the multi-tenant threat model its §XIII sketches — run *many*
//! kernels, from many clients, concurrently. This crate is the missing
//! host layer: a CUDA-like runtime with
//!
//! * [`Runtime`] — streams ([`StreamId`]) as in-order work queues, events
//!   ([`EventId`]) for cross-stream dependencies, and a
//!   `cudaDeviceSynchronize`-style [`Runtime::synchronize`] fixpoint that
//!   drains everything deterministically;
//! * [`Tenant`] — per-client allocator arenas (disjoint global/heap
//!   slices) and a per-client protection choice (LMI or the unprotected
//!   baseline), so a violation is attributable to the tenant and stream
//!   that caused it;
//! * [`CopyConfig`] — a first-order H2D/D2H DMA cost model (latency +
//!   bandwidth, one engine per direction) so copies overlap compute;
//! * [`scheduler::partition_sms`] — demand-proportional spatial
//!   partitioning: every stream with a kernel ready joins a *cohort* that
//!   runs in one resident simulation over disjoint SM partitions
//!   (`lmi_sim::Gpu::run_resident`), contending for the shared L2/DRAM.
//!
//! Everything is driven by simulated cycles, never host time, so a
//! runtime program produces bit-identical [`RuntimeReport`]s, counters
//! and event stamps at any `sim_threads` setting — the property the
//! workspace's determinism suite pins down.
//!
//! ## Example
//!
//! ```
//! use lmi_isa::{Instruction, ProgramBuilder};
//! use lmi_runtime::Runtime;
//! use lmi_sim::{GpuConfig, Launch};
//!
//! let mut rt = Runtime::new(GpuConfig::small());
//! let tenant = rt.add_tenant(true); // LMI-protected
//! let stream = rt.create_stream(tenant)?;
//! let buf = rt.malloc(tenant, 1024)?;
//!
//! let mut b = ProgramBuilder::new("noop");
//! b.push(Instruction::exit());
//! rt.memcpy_h2d(stream, buf, &[1, 2, 3])?;
//! rt.launch(stream, Launch::new(b.build()).grid(2).block(64).param(buf))?;
//! rt.synchronize()?;
//! assert_eq!(rt.report().kernels.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod copy;
pub mod metrics;
pub mod runtime;
pub mod scheduler;
pub mod stream;
pub mod tenant;

pub use copy::CopyConfig;
pub use metrics::{MetricsSnapshot, TenantSlo};
pub use runtime::{CopyReport, KernelReport, Runtime, RuntimeReport, SubmitError, SyncError};
pub use stream::{CopyHandle, EventId, StreamId};
pub use tenant::Tenant;

/// A multi-tenant runtime session. The serving-layer docs (and the
/// metrics surface) talk about *sessions*; `Session` is that name for
/// [`Runtime`] — `Session::metrics_snapshot()` is the observability
/// entry point.
pub type Session = Runtime;
