//! # lmi-core — the Let-Me-In memory-safety mechanism
//!
//! This crate implements the primary contribution of *Let-Me-In: (Still)
//! Employing In-pointer Bounds Metadata for Fine-grained GPU Memory Safety*
//! (HPCA 2025):
//!
//! * [`ptr`] — the 64-bit pointer format of paper Fig. 6: a 5-bit **extent**
//!   field in the most significant bits encodes the power-of-two buffer size
//!   (256 B … 256 GiB), the remaining bits split into *unmodifiable* (UM) and
//!   *modifiable* (M) address bits;
//! * [`ocu`] — the **Overflow Checking Unit** attached to every integer ALU
//!   (paper §VII): on a hint-marked pointer operation it masks the
//!   XOR-difference between the incoming pointer and the ALU result and
//!   poisons the pointer (clears its extent) if any bit above the buffer's
//!   alignment boundary changed;
//! * [`ec`] — the **Extent Checker** in the load/store unit: faults any
//!   dereference whose extent is zero, implementing *delayed termination*
//!   (paper §XII-A) so that transiently out-of-bounds pointers that are never
//!   dereferenced cause no false positive;
//! * [`temporal`] — extent nullification on `free`/scope exit (paper §VIII);
//! * [`liveness`] — the §XII-C extension: UM-bit-keyed pointer liveness
//!   tracking with optional page-invalidation for large buffers, which closes
//!   the copied-pointer use-after-free hole;
//! * [`hw`] — a structural gate-level model of the OCU used to reproduce the
//!   paper's hardware cost results (Table VI, §XI-C: ≈153 gate equivalents
//!   per thread, 0.63 ns critical path, three-cycle pipelined latency).
//!
//! ## Quick tour
//!
//! ```
//! use lmi_core::{PtrConfig, DevicePtr, Ocu, ExtentChecker};
//!
//! let cfg = PtrConfig::default();
//! // cudaMalloc(1000) rounds to 1024 B and embeds extent 3 in the pointer.
//! let p = DevicePtr::encode(0x1234_5400, 1000, &cfg)?;
//! assert_eq!(p.size(&cfg), Some(1024));
//!
//! // In-bounds pointer arithmetic passes the OCU …
//! let ocu = Ocu::new(cfg);
//! let (_q, outcome) = ocu.check_marked(p.raw(), p.raw() + 1016);
//! assert!(outcome.passed());
//!
//! // … an out-of-bounds update poisons the pointer, and the EC faults the
//! // dereference (not the arithmetic — delayed termination).
//! let (bad, outcome) = ocu.check_marked(p.raw(), p.raw() + 1024);
//! assert!(!outcome.passed());
//! let ec = ExtentChecker::new(cfg);
//! assert!(ec.check_access(bad).is_err());
//! # Ok::<(), lmi_core::PtrError>(())
//! ```

pub mod ec;
pub mod error;
pub mod hw;
pub mod liveness;
pub mod ocu;
pub mod ocu_pair;
pub mod ptr;
pub mod temporal;

pub use ec::ExtentChecker;
pub use error::{TemporalKind, Violation};
pub use liveness::LivenessTracker;
pub use ocu::{Ocu, OcuOutcome};
pub use ocu_pair::PairOcu;
pub use ptr::{DevicePtr, PtrConfig, PtrError};
pub use temporal::invalidate_extent;
