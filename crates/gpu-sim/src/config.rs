//! Simulator configuration (paper Table IV).

use lmi_mem::HierarchyConfig;

/// Warp width (threads per warp).
pub const WARP_SIZE: usize = 32;

/// GPU configuration.
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Number of SM cores (Table IV: 80 @ 2 GHz).
    pub num_sms: usize,
    /// Warp schedulers per SM (Table IV: 4, GTO).
    pub schedulers_per_sm: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Memory hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Per-thread local (stack) window in bytes.
    pub stack_bytes: u64,
    /// Integer-ALU latency in cycles.
    pub int_latency: u32,
    /// FPU latency in cycles.
    pub fpu_latency: u32,
    /// Constant-cache access latency in cycles.
    pub const_latency: u32,
    /// Latency of a device-runtime `malloc`/`free` call in cycles.
    pub heap_call_latency: u32,
    /// Worker threads for the parallel engine (`crate::engine`). `0` means
    /// "auto": honor the `LMI_SIM_THREADS` environment variable if set,
    /// otherwise run serially. Any value is clamped to `num_sms`. The
    /// engine is deterministic: every thread count produces bit-identical
    /// [`crate::stats::SimStats`].
    pub sim_threads: usize,
    /// Number of address-interleaved memory banks the shared L2 + MSHR +
    /// DRAM + backing store shard into (`crate::engine`'s bank-parallel
    /// apply). `0` means "auto": honor the `LMI_MEM_BANKS` environment
    /// variable if set, otherwise run monolithic (1 bank). Any value is
    /// clamped to the largest count the hierarchy geometry supports
    /// ([`lmi_mem::max_supported_banks`]). Like `sim_threads`, the setting
    /// is perf-only: every bank count produces bit-identical
    /// [`crate::stats::SimStats`].
    pub mem_banks: usize,
    /// Cycles of the LSU front-end (operand collection + address
    /// generation) that overlap the OCU's pipelined verdict: a dependent
    /// memory access only stalls for `max(0, verdict - ready - overlap)`
    /// extra cycles. With the paper's 3-cycle OCU and a ≥3-stage LSU
    /// front end, the verdict arrives in time — the reason LMI's overhead
    /// is near zero (§XI-A). Set to 0 for the no-overlap ablation.
    pub lsu_verdict_overlap: u32,
    /// Stop the faulting warp when a mechanism reports a violation.
    pub halt_on_violation: bool,
    /// Sampling-profiler period in simulated cycles; `0` (the default)
    /// disables sampling. Every `sample_period` cycles each SM records
    /// its warp states, stall reasons and executing PCs into
    /// [`crate::stats::SimStats::profile`]. Each SM takes its samples in
    /// phase A from its own state into its own profile, and the run folds
    /// them per SM id, so profiles are bit-identical across `sim_threads`.
    pub sample_period: u64,
}

impl GpuConfig {
    /// The paper's Table IV configuration.
    pub fn table4() -> GpuConfig {
        GpuConfig {
            num_sms: 80,
            schedulers_per_sm: 4,
            max_warps_per_sm: 64,
            hierarchy: HierarchyConfig::table4(80),
            stack_bytes: lmi_mem::layout::DEFAULT_STACK_BYTES,
            int_latency: 4,
            fpu_latency: 4,
            const_latency: 8,
            heap_call_latency: 600,
            sim_threads: 0,
            mem_banks: 0,
            lsu_verdict_overlap: 3,
            halt_on_violation: false,
            sample_period: 0,
        }
    }

    /// A scaled-down configuration (8 SMs) with identical per-SM parameters,
    /// used where full-chip simulation would be needlessly slow. Normalized
    /// overheads are preserved because all latency ratios are unchanged.
    pub fn small() -> GpuConfig {
        let mut cfg = GpuConfig::table4();
        cfg.num_sms = 8;
        cfg.hierarchy = HierarchyConfig::table4(8);
        cfg
    }

    /// `small()` plus violation halting — the security-suite configuration.
    pub fn security() -> GpuConfig {
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 1;
        cfg.hierarchy = HierarchyConfig::table4(1);
        cfg.halt_on_violation = true;
        cfg
    }

    /// Returns a copy with an explicit worker-thread count (`1` = serial).
    pub fn with_sim_threads(mut self, threads: usize) -> GpuConfig {
        self.sim_threads = threads;
        self
    }

    /// Returns a copy with the sampling profiler enabled at `period`
    /// cycles (`0` disables it again).
    pub fn with_sample_period(mut self, period: u64) -> GpuConfig {
        self.sample_period = period;
        self
    }

    /// Returns a copy with an explicit memory-bank count (`1` = monolithic).
    pub fn with_mem_banks(mut self, banks: usize) -> GpuConfig {
        self.mem_banks = banks;
        self
    }

    /// Resolves [`GpuConfig::sim_threads`] to an effective worker count:
    /// an explicit setting wins, then the `LMI_SIM_THREADS` environment
    /// variable, then serial; the result is clamped to `num_sms` (a worker
    /// without an SM would only spin on barriers).
    pub fn resolve_sim_threads(&self) -> usize {
        let requested = if self.sim_threads != 0 {
            self.sim_threads
        } else {
            std::env::var("LMI_SIM_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1)
        };
        requested.clamp(1, self.num_sms.max(1))
    }

    /// Resolves [`GpuConfig::mem_banks`] to an effective bank count: an
    /// explicit setting wins, then the `LMI_MEM_BANKS` environment
    /// variable, then monolithic; the result is clamped to the largest
    /// count the hierarchy geometry supports (banks must divide the L2 set
    /// count and the DRAM channel count evenly).
    pub fn resolve_mem_banks(&self) -> usize {
        let requested = if self.mem_banks != 0 {
            self.mem_banks
        } else {
            std::env::var("LMI_MEM_BANKS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1)
        };
        lmi_mem::max_supported_banks(&self.hierarchy, requested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_the_paper() {
        let c = GpuConfig::table4();
        assert_eq!(c.num_sms, 80);
        assert_eq!(c.schedulers_per_sm, 4);
        assert_eq!(c.hierarchy.l1.capacity_bytes, 96 * 1024);
        assert_eq!(c.hierarchy.l2.ways, 24);
    }

    #[test]
    fn sim_threads_resolution_clamps_to_sm_count() {
        let cfg = GpuConfig::small().with_sim_threads(3);
        assert_eq!(cfg.resolve_sim_threads(), 3);
        assert_eq!(GpuConfig::small().with_sim_threads(64).resolve_sim_threads(), 8);
        assert_eq!(GpuConfig::security().with_sim_threads(8).resolve_sim_threads(), 1);
    }

    #[test]
    fn mem_banks_resolution_clamps_to_geometry() {
        // Table IV: 1536 L2 sets, 32 DRAM channels — powers of two divide
        // both; 5 divides neither, so it clamps down to 4.
        assert_eq!(GpuConfig::small().with_mem_banks(4).resolve_mem_banks(), 4);
        assert_eq!(GpuConfig::small().with_mem_banks(5).resolve_mem_banks(), 4);
        assert_eq!(GpuConfig::small().with_mem_banks(1000).resolve_mem_banks(), 32);
        assert_eq!(GpuConfig::small().with_mem_banks(1).resolve_mem_banks(), 1);
    }

    #[test]
    fn small_preserves_per_sm_parameters() {
        let t = GpuConfig::table4();
        let s = GpuConfig::small();
        assert_eq!(s.hierarchy.l1, t.hierarchy.l1);
        assert_eq!(s.hierarchy.l2, t.hierarchy.l2);
        assert_eq!(s.int_latency, t.int_latency);
    }
}
