//! GPU memory spaces.

use std::fmt;

/// The memory region targeted by a load/store instruction.
///
/// The GPU memory hierarchy is heterogeneous (paper §II-A): global memory is
/// shared by all threads and kernels, shared memory is per thread block,
/// local (stack) memory is per thread, and the device heap (kernel-side
/// `malloc`) lives in global DRAM but is allocated per thread. Constant
/// memory is read-only and excluded from the threat model, but is still
/// needed to read kernel parameters and the stack pointer (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSpace {
    /// Global device memory (`LDG`/`STG`), allocated with `cudaMalloc`.
    Global,
    /// Per-block shared memory (`LDS`/`STS`).
    Shared,
    /// Per-thread local/stack memory (`LDL`/`STL`).
    Local,
    /// Read-only constant memory (`LDC`), e.g. kernel parameter bank `c[0x0]`.
    Const,
}

impl MemSpace {
    /// All load/store-addressable spaces, in a stable order.
    pub const ALL: [MemSpace; 4] =
        [MemSpace::Global, MemSpace::Shared, MemSpace::Local, MemSpace::Const];

    /// Short mnemonic suffix used in disassembly (`G`, `S`, `L`, `C`).
    pub fn suffix(self) -> &'static str {
        match self {
            MemSpace::Global => "G",
            MemSpace::Shared => "S",
            MemSpace::Local => "L",
            MemSpace::Const => "C",
        }
    }

    /// Lower-case name (`global`, `shared`, `local`, `const`), as reports
    /// and [`fmt::Display`] spell it.
    pub fn name(self) -> &'static str {
        match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Local => "local",
            MemSpace::Const => "const",
        }
    }

    /// Returns `true` for spaces that are attack targets in the paper's
    /// threat model (global, shared, local — registers/constant/texture are
    /// excluded, §II-A).
    pub fn is_protected(self) -> bool {
        !matches!(self, MemSpace::Const)
    }

    /// Encoding used in the microcode `space` field.
    pub(crate) fn to_bits(self) -> u8 {
        match self {
            MemSpace::Global => 0,
            MemSpace::Shared => 1,
            MemSpace::Local => 2,
            MemSpace::Const => 3,
        }
    }

    pub(crate) fn from_bits(bits: u8) -> Option<MemSpace> {
        match bits {
            0 => Some(MemSpace::Global),
            1 => Some(MemSpace::Shared),
            2 => Some(MemSpace::Local),
            3 => Some(MemSpace::Const),
            _ => None,
        }
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        for space in MemSpace::ALL {
            assert_eq!(MemSpace::from_bits(space.to_bits()), Some(space));
        }
        assert_eq!(MemSpace::from_bits(4), None);
    }

    #[test]
    fn const_is_not_protected() {
        assert!(MemSpace::Global.is_protected());
        assert!(MemSpace::Shared.is_protected());
        assert!(MemSpace::Local.is_protected());
        assert!(!MemSpace::Const.is_protected());
    }
}
