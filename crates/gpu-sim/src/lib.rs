//! # lmi-sim — a cycle-level SIMT GPU simulator
//!
//! The evaluation substrate standing in for MacSim (paper §X): an in-order
//! SIMT simulator with the Table IV configuration — 80 SM cores, four
//! greedy-then-oldest warp schedulers per SM, a per-warp register
//! scoreboard for latency hiding, a coalescing load/store unit, per-SM L1s,
//! a shared L2 and an HBM DRAM model (from `lmi-mem`).
//!
//! Memory-safety mechanisms plug in through the [`Mechanism`] trait. The
//! engine checks one warp-instruction at a time, as the hardware does:
//!
//! * integer-ALU results of hint-marked instructions pass through the OCU
//!   check — where LMI's OCU lives;
//! * every memory access passes through the memory check — where LMI's EC
//!   and GPUShield's RCache live.
//!
//! A check that depends only on register bits ([`Mechanism::bit_rules`]:
//! LMI's OCU and EC, the null mechanism's) runs on the issuing SM; the
//! rest run on the engine's leader through [`Mechanism::on_marked_int_warp`]
//! and [`Mechanism::on_mem_access_warp`]. Both warp forms default to a loop
//! over the per-lane hooks ([`Mechanism::on_marked_int`],
//! [`Mechanism::on_mem_access`]), so a mechanism may implement just those;
//! the loop is the adapter body.
//!
//! Software mechanisms (Baggy Bounds, DBI) need no hooks at all: they
//! rewrite the program and their cost emerges from executing the extra
//! instructions.
//!
//! ## Example
//!
//! ```
//! use lmi_sim::{Gpu, GpuConfig, Launch, LmiMechanism};
//! use lmi_isa::{Instruction, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new("noop");
//! b.push(Instruction::exit());
//! let program = b.build();
//!
//! let mut gpu = Gpu::new(GpuConfig::small());
//! let stats = gpu.run(
//!     &Launch::new(program).grid(2).block(64),
//!     &mut LmiMechanism::default_config(),
//! );
//! assert!(stats.cycles > 0);
//! ```

pub mod config;
pub(crate) mod engine;
pub mod exec;
pub mod gpu;
pub mod launch;
pub mod lsu;
pub mod mechanism;
pub mod sm;
pub mod stats;
pub mod warp;

pub use config::GpuConfig;
pub use gpu::{Gpu, KernelOutcome, MemorySnapshot, ResidentKernel, ResidentOutcome};
pub use launch::{Launch, LaunchError};
pub use mechanism::{
    BitRules, EcRule, IntCheck, LmiMechanism, Mechanism, MemAccessCtx, MemCheck, NullMechanism,
    OcuRule, WarpMemAccess, WarpMemVerdict,
};
pub use stats::{SimStats, StallBreakdown, ViolationEvent};
