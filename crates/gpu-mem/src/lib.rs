//! # lmi-mem — GPU memory-hierarchy substrate
//!
//! The timing and functional memory model underneath the `lmi-sim`
//! cycle simulator, mirroring the MacSim configuration of paper Table IV:
//!
//! * [`cache`] — set-associative caches with LRU replacement (per-SM L1:
//!   96 KB, 30-cycle latency; shared L2: 4.5 MB, 24-way, 200-cycle latency);
//! * [`dram`] — an HBM-style DRAM model with fixed access latency plus a
//!   bandwidth-limiting transaction queue;
//! * [`hierarchy`] — configuration of the composed L1 → L2 → DRAM path;
//! * [`banks`] — the shared memory system (L2 slices + MSHRs + DRAM
//!   channel groups + backing store) sharded into address-interleaved
//!   banks so the simulator's shared-state apply can run bank-parallel;
//! * [`backing`] — a sparse functional byte store so kernels move real data
//!   (needed by the security suite to demonstrate actual corruption);
//! * [`layout`] — the virtual-address-space layout used by the allocators
//!   (global arena, device-heap arena, per-thread local windows).

pub mod backing;
pub mod banks;
pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod layout;

pub use backing::SparseMemory;
pub use banks::{
    max_supported_banks, BankRouter, BankedHierarchy, BankedMemory, MemBank, MAX_BANKS,
};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use dram::{Dram, DramConfig};
pub use hierarchy::HierarchyConfig;
