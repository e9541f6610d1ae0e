//! Kernel launch descriptors and launch validation.

use lmi_isa::Program;

use crate::config::GpuConfig;

/// Why a launch cannot run on a given GPU (or SM partition).
///
/// The seed simulator `panic!`ed on these; the runtime layer
/// (`lmi-runtime`) instead surfaces them as rejected submissions, so a
/// misconfigured tenant cannot crash a shared simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchError {
    /// `grid_blocks == 0`: nothing to dispatch.
    ZeroGrid,
    /// `threads_per_block == 0`: warps cannot be formed.
    ZeroBlock,
    /// A single block carries more warps than one SM can ever hold.
    BlockTooLarge {
        /// Warps one block needs.
        warps: usize,
        /// Per-SM warp capacity.
        capacity: usize,
    },
    /// Round-robin dispatch over the partition would overflow an SM's
    /// resident-warp capacity.
    WarpCapacityExceeded {
        /// Warps the fullest SM would hold.
        warps: usize,
        /// Per-SM warp capacity.
        capacity: usize,
        /// SMs the launch was dispatched over.
        partition_sms: usize,
    },
    /// The SM partition handed to resident dispatch is empty or out of
    /// range for the configured GPU.
    BadPartition {
        /// Partition start (SM id).
        start: usize,
        /// Partition end (exclusive).
        end: usize,
        /// SMs on the GPU.
        num_sms: usize,
    },
    /// The program failed to lower into a decoded stream: an instruction
    /// carries a malformed immediate (corrupted microcode). Surfacing this
    /// at launch keeps the cycle loop decode-free — it never re-validates.
    Decode(lmi_isa::DecodeError),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::ZeroGrid => write!(f, "launch has zero grid blocks"),
            LaunchError::ZeroBlock => write!(f, "launch has zero threads per block"),
            LaunchError::BlockTooLarge { warps, capacity } => {
                write!(f, "one block needs {warps} warps but an SM holds {capacity}")
            }
            LaunchError::WarpCapacityExceeded { warps, capacity, partition_sms } => write!(
                f,
                "launch exceeds per-SM warp capacity ({warps} > {capacity} over \
                 {partition_sms} SM(s))"
            ),
            LaunchError::BadPartition { start, end, num_sms } => {
                write!(f, "SM partition {start}..{end} is invalid on a {num_sms}-SM GPU")
            }
            LaunchError::Decode(e) => write!(f, "program failed to decode: {e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<lmi_isa::DecodeError> for LaunchError {
    fn from(e: lmi_isa::DecodeError) -> LaunchError {
        LaunchError::Decode(e)
    }
}

/// A kernel launch: program, geometry, and parameters.
///
/// Parameters are raw 64-bit values placed in constant bank 0 at
/// [`lmi_isa::abi::param_offset`]; pointer parameters carry their extent
/// bits when produced by an LMI allocator.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The kernel.
    pub program: Program,
    /// Number of thread blocks.
    pub grid_blocks: usize,
    /// Threads per block (rounded up to full warps internally).
    pub threads_per_block: usize,
    /// Kernel parameters (8-byte slots).
    pub params: Vec<u64>,
    /// Launch phase: a fixed cycle offset added to every warp's dispatch
    /// time. Measuring at several phases and averaging marginalizes the
    /// scheduler-resonance sensitivity inherent to deterministic cycle
    /// simulators.
    pub phase: u64,
}

impl Launch {
    /// A launch of one block of one warp, with no parameters.
    pub fn new(program: Program) -> Launch {
        Launch { program, grid_blocks: 1, threads_per_block: 32, params: Vec::new(), phase: 0 }
    }

    /// Sets the launch phase (warp-dispatch cycle offset).
    pub fn phase(mut self, phase: u64) -> Launch {
        self.phase = phase;
        self
    }

    /// Sets the grid size (blocks).
    pub fn grid(mut self, blocks: usize) -> Launch {
        self.grid_blocks = blocks;
        self
    }

    /// Sets the block size (threads).
    pub fn block(mut self, threads: usize) -> Launch {
        self.threads_per_block = threads;
        self
    }

    /// Appends a parameter.
    pub fn param(mut self, value: u64) -> Launch {
        self.params.push(value);
        self
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.grid_blocks * self.threads_per_block
    }

    /// Warps per block.
    pub fn warps_per_block(&self) -> usize {
        self.threads_per_block.div_ceil(crate::config::WARP_SIZE)
    }

    /// Validates the launch against a whole-GPU dispatch (all SMs).
    pub fn validate(&self, cfg: &GpuConfig) -> Result<(), LaunchError> {
        self.validate_on(cfg, cfg.num_sms)
    }

    /// Validates the launch against round-robin dispatch over a partition
    /// of `partition_sms` SMs. Mirrors the dispatch arithmetic in
    /// `Gpu::run_resident`: block `b` lands on SM `b % partition_sms`, so the
    /// fullest SM holds `ceil(grid / partition_sms)` blocks.
    pub fn validate_on(&self, cfg: &GpuConfig, partition_sms: usize) -> Result<(), LaunchError> {
        if self.grid_blocks == 0 {
            return Err(LaunchError::ZeroGrid);
        }
        if self.threads_per_block == 0 {
            return Err(LaunchError::ZeroBlock);
        }
        if partition_sms == 0 || partition_sms > cfg.num_sms {
            return Err(LaunchError::BadPartition {
                start: 0,
                end: partition_sms,
                num_sms: cfg.num_sms,
            });
        }
        let wpb = self.warps_per_block();
        if wpb > cfg.max_warps_per_sm {
            return Err(LaunchError::BlockTooLarge { warps: wpb, capacity: cfg.max_warps_per_sm });
        }
        let fullest = self.grid_blocks.div_ceil(partition_sms) * wpb;
        if fullest > cfg.max_warps_per_sm {
            return Err(LaunchError::WarpCapacityExceeded {
                warps: fullest,
                capacity: cfg.max_warps_per_sm,
                partition_sms,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_isa::{Instruction, ProgramBuilder};

    #[test]
    fn builder_style_configuration() {
        let mut b = ProgramBuilder::new("k");
        b.push(Instruction::exit());
        let l = Launch::new(b.build()).grid(4).block(96).param(0xABCD);
        assert_eq!(l.total_threads(), 384);
        assert_eq!(l.warps_per_block(), 3);
        assert_eq!(l.params, vec![0xABCD]);
    }

    fn trivial() -> Program {
        let mut b = ProgramBuilder::new("k");
        b.push(Instruction::exit());
        b.build()
    }

    #[test]
    fn validate_accepts_fitting_launch() {
        let cfg = GpuConfig::small();
        let l = Launch::new(trivial()).grid(cfg.num_sms).block(32);
        assert_eq!(l.validate(&cfg), Ok(()));
    }

    #[test]
    fn validate_rejects_degenerate_geometry() {
        let cfg = GpuConfig::small();
        assert_eq!(Launch::new(trivial()).grid(0).validate(&cfg), Err(LaunchError::ZeroGrid));
        assert_eq!(Launch::new(trivial()).block(0).validate(&cfg), Err(LaunchError::ZeroBlock));
    }

    #[test]
    fn validate_rejects_capacity_overflow() {
        let cfg = GpuConfig::small();
        let cap = cfg.max_warps_per_sm;
        // One warp per block, more blocks per SM than the capacity.
        let l = Launch::new(trivial()).grid(cfg.num_sms * (cap + 1)).block(32);
        assert_eq!(
            l.validate(&cfg),
            Err(LaunchError::WarpCapacityExceeded {
                warps: cap + 1,
                capacity: cap,
                partition_sms: cfg.num_sms,
            })
        );
        // A single block too large for any SM.
        let l = Launch::new(trivial()).grid(1).block((cap + 1) * 32);
        assert_eq!(
            l.validate(&cfg),
            Err(LaunchError::BlockTooLarge { warps: cap + 1, capacity: cap })
        );
    }

    #[test]
    fn validate_on_narrower_partition_is_stricter() {
        let cfg = GpuConfig::small();
        let cap = cfg.max_warps_per_sm;
        // Fits across the whole GPU, overflows when squeezed onto one SM.
        let l = Launch::new(trivial()).grid(cfg.num_sms * cap).block(32);
        assert_eq!(l.validate(&cfg), Ok(()));
        assert!(matches!(
            l.validate_on(&cfg, 1),
            Err(LaunchError::WarpCapacityExceeded { partition_sms: 1, .. })
        ));
        assert!(matches!(
            l.validate_on(&cfg, cfg.num_sms + 1),
            Err(LaunchError::BadPartition { .. })
        ));
    }
}
