//! The mechanism registry: what each protection kind needs to run.
//!
//! Every driver that compares mechanisms — the figure harness in
//! `lmi-bench`, the conformance oracle, the integration tests — asks a
//! [`MechanismKind`] for its alignment policy, its program rewrite, a
//! fresh simulator mechanism and its canary guards, so each competitor is
//! defined once.

use lmi_alloc::AlignmentPolicy;
use lmi_isa::Program;
use lmi_sim::{LmiMechanism, Mechanism, NullMechanism};

use crate::canary::{CanaryAllocator, CanaryMemory};
use crate::{instrument_baggy, instrument_lmi_dbi, instrument_memcheck, GpuShield};

/// A protection mechanism a kernel can run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// Unprotected baseline binary.
    Null,
    /// LMI build under the OCU/EC mechanism.
    Lmi,
    /// Baseline binary under GPUShield's region bounds table.
    GpuShield,
    /// LMI build rewritten with Baggy Bounds software checks (the check
    /// sequences cost cycles but never fault).
    Baggy,
    /// Baseline binary rewritten by the NVBit-style LMI-DBI tool.
    LmiDbi,
    /// Baseline binary rewritten by the memcheck-style DBI tool.
    Memcheck,
    /// Baseline binary with canary-guarded global buffers scanned at the
    /// kernel-end synchronization point.
    Canary,
}

impl MechanismKind {
    /// Stable label (reports, corpus JSON).
    pub fn label(self) -> &'static str {
        match self {
            MechanismKind::Null => "null",
            MechanismKind::Lmi => "lmi",
            MechanismKind::GpuShield => "gpushield",
            MechanismKind::Baggy => "baggy",
            MechanismKind::LmiDbi => "lmi-dbi",
            MechanismKind::Memcheck => "memcheck",
            MechanismKind::Canary => "canary",
        }
    }

    /// The alignment policy of the kind's buffers and device heap. LMI and
    /// Baggy need 2ⁿ-aligned, extent-carrying pointers, so `PowerOfTwo`
    /// also means: run the LMI build and extent-encode kernel parameters.
    pub fn policy(self) -> AlignmentPolicy {
        match self {
            MechanismKind::Lmi | MechanismKind::Baggy => AlignmentPolicy::PowerOfTwo,
            _ => AlignmentPolicy::CudaDefault,
        }
    }

    /// The software mechanisms' rewrite of `program` (the build
    /// [`policy`](Self::policy) selects); `None` for kinds that run it
    /// unchanged.
    pub fn rewrite(self, program: &Program) -> Option<Program> {
        match self {
            MechanismKind::Baggy => Some(instrument_baggy(program)),
            MechanismKind::LmiDbi => Some(instrument_lmi_dbi(program)),
            MechanismKind::Memcheck => Some(instrument_memcheck(program)),
            _ => None,
        }
    }

    /// A fresh simulator mechanism for one run over the kernel-argument
    /// `buffers` (`(base, size)` pairs, registered with GPUShield).
    pub fn instance(self, buffers: &[(u64, u64)]) -> Box<dyn Mechanism> {
        match self {
            MechanismKind::Lmi => Box::new(LmiMechanism::default_config()),
            MechanismKind::GpuShield => Box::new(GpuShield::with_buffers(buffers)),
            _ => Box::new(NullMechanism),
        }
    }

    /// Paints the kind's canaries around `buffers` in `memory`; the
    /// returned allocator's [`scan`](CanaryAllocator::scan) is the
    /// kernel-end verdict. Kinds without canaries guard nothing, so their
    /// scan never fires.
    pub fn guard(self, memory: &mut impl CanaryMemory, buffers: &[(u64, u64)]) -> CanaryAllocator {
        let mut canary = CanaryAllocator::new();
        if self == MechanismKind::Canary {
            for &(base, size) in buffers {
                canary.guard(memory, base, size);
            }
        }
        canary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_isa::{HintBits, Instruction, MemRef, ProgramBuilder, Reg};
    use lmi_mem::SparseMemory;

    const ALL: [MechanismKind; 7] = [
        MechanismKind::Null,
        MechanismKind::Lmi,
        MechanismKind::GpuShield,
        MechanismKind::Baggy,
        MechanismKind::LmiDbi,
        MechanismKind::Memcheck,
        MechanismKind::Canary,
    ];

    #[test]
    fn labels_are_unique_and_the_oracle_labels_are_stable() {
        let labels: Vec<_> = ALL.iter().map(|k| k.label()).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(l), "duplicate label {l}");
        }
        // Corpus JSON and the fuzz report carry these strings.
        assert_eq!(MechanismKind::Null.label(), "null");
        assert_eq!(MechanismKind::Lmi.label(), "lmi");
        assert_eq!(MechanismKind::GpuShield.label(), "gpushield");
        assert_eq!(MechanismKind::Baggy.label(), "baggy");
        assert_eq!(MechanismKind::Canary.label(), "canary");
    }

    #[test]
    fn only_lmi_and_baggy_need_power_of_two_extents() {
        for kind in ALL {
            let expect = match kind {
                MechanismKind::Lmi | MechanismKind::Baggy => AlignmentPolicy::PowerOfTwo,
                _ => AlignmentPolicy::CudaDefault,
            };
            assert_eq!(kind.policy(), expect, "{}", kind.label());
        }
    }

    #[test]
    fn rewrites_are_the_instrumenters() {
        let mut b = ProgramBuilder::new("p");
        b.push(Instruction::iadd64(Reg(4), Reg(4), 4).with_hints(HintBits::check_operand(0)));
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
        b.push(Instruction::exit());
        let program = b.build();
        assert_eq!(MechanismKind::Baggy.rewrite(&program), Some(instrument_baggy(&program)));
        assert_eq!(MechanismKind::LmiDbi.rewrite(&program), Some(instrument_lmi_dbi(&program)));
        assert_eq!(MechanismKind::Memcheck.rewrite(&program), Some(instrument_memcheck(&program)));
        for kind in [
            MechanismKind::Null,
            MechanismKind::Lmi,
            MechanismKind::GpuShield,
            MechanismKind::Canary,
        ] {
            assert_eq!(kind.rewrite(&program), None, "{}", kind.label());
        }
    }

    #[test]
    fn instances_name_their_mechanism() {
        for kind in ALL {
            let expect = match kind {
                MechanismKind::Lmi => "lmi",
                MechanismKind::GpuShield => "gpushield",
                _ => "baseline",
            };
            assert_eq!(kind.instance(&[(0x1000, 256)]).name(), expect, "{}", kind.label());
        }
    }

    #[test]
    fn only_the_canary_kind_guards_and_its_scan_sees_an_adjacent_overwrite() {
        const BASE: u64 = 0x0100_0000_1000;
        for kind in ALL {
            let mut mem = SparseMemory::new();
            let guards = kind.guard(&mut mem, &[(BASE, 256)]);
            mem.write_u8(BASE + 256, 0x00);
            let hit = !guards.scan(&mem).is_empty();
            assert_eq!(hit, kind == MechanismKind::Canary, "{}", kind.label());
        }
    }
}
