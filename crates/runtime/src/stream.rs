//! Streams: in-order work queues, and the ops they carry.

use std::collections::VecDeque;

use lmi_sim::Launch;

/// Identifies a stream within its [`crate::Runtime`].
pub type StreamId = usize;

/// Identifies an event within its [`crate::Runtime`].
pub type EventId = usize;

/// A handle to the result of an asynchronous D2H copy; redeem it after
/// [`crate::Runtime::synchronize`] with [`crate::Runtime::copy_result`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyHandle(pub(crate) usize);

/// One queued operation.
pub(crate) enum StreamOp {
    /// Host→device copy: `data` words land at `ptr` when the transfer
    /// completes; `bytes` drives the cost model (it may exceed the payload
    /// for cost-only traffic).
    H2D { ptr: u64, bytes: u64, data: Vec<u64> },
    /// Device→host copy of `bytes` starting at `ptr`, delivered through
    /// the handle's result slot.
    D2H { ptr: u64, bytes: u64, handle: CopyHandle },
    /// A kernel launch.
    Kernel { launch: Box<Launch> },
    /// Completes instantly, stamping the event with the stream's current
    /// ready cycle.
    RecordEvent { event: EventId },
    /// Blocks the stream until the event has been recorded (possibly by
    /// another stream), then advances the stream's clock to the event's.
    WaitEvent { event: EventId },
}

/// One in-order work queue, owned by a tenant.
pub(crate) struct StreamState {
    pub id: StreamId,
    pub tenant: usize,
    pub ops: VecDeque<StreamOp>,
    /// Simulated cycle at which every completed op of this stream had
    /// finished — the stream's logical clock.
    pub ready_at: u64,
}

impl StreamState {
    pub fn new(id: StreamId, tenant: usize) -> StreamState {
        StreamState { id, tenant, ops: VecDeque::new(), ready_at: 0 }
    }
}
