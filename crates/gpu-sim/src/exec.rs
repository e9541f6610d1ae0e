//! Pure functional ALU semantics, shared by the SM issue logic and unit
//! tests.
//!
//! The scalar functions ([`alu32`], [`alu64`], [`fpu`]) define the
//! semantics. The `*_lanes` forms are what phase A executes: one opcode
//! dispatch per warp-instruction around a 32-lane loop whose body is the
//! scalar function specialised to that opcode, so both forms are one
//! definition. They compute every lane — the operations are total and
//! cannot panic on any value — and the caller writes back through the
//! exec mask.

use lmi_isa::instr::CmpOp;
use lmi_isa::Opcode;

use crate::config::WARP_SIZE;
use crate::warp::{Column, Column64, LaneMask};

/// Applies `f` lane by lane.
#[inline(always)]
fn map_lanes<T: Copy>(
    a: &[T; WARP_SIZE],
    b: &[T; WARP_SIZE],
    c: &[T; WARP_SIZE],
    f: impl Fn(T, T, T) -> T,
) -> [T; WARP_SIZE] {
    std::array::from_fn(|l| f(a[l], b[l], c[l]))
}

/// Matches `$op` once against the listed opcodes; each arm maps the scalar
/// `$scalar` with its opcode fixed, which the compiler folds into a
/// straight-line lane loop.
macro_rules! dispatch_lanes {
    ($scalar:ident, $op:expr, $a:expr, $b:expr, $c:expr, [$($name:ident),+ $(,)?]) => {
        match $op {
            $(Opcode::$name => map_lanes($a, $b, $c, |x, y, z| $scalar(Opcode::$name, x, y, z)),)+
            other => panic!(concat!("{} has no ", stringify!($scalar), " semantics"), other),
        }
    };
}

/// Computes a 32-bit integer-ALU result.
///
/// # Panics
///
/// Panics on opcodes that are not 32-bit integer operations.
#[inline]
pub fn alu32(op: Opcode, a: u32, b: u32, c: u32) -> u32 {
    match op {
        Opcode::Iadd3 => a.wrapping_add(b).wrapping_add(c),
        Opcode::Imad => a.wrapping_mul(b).wrapping_add(c),
        Opcode::Mov => a,
        Opcode::Imnmx => {
            if c == 0 {
                (a as i32).min(b as i32) as u32
            } else {
                (a as i32).max(b as i32) as u32
            }
        }
        Opcode::Shl => a.wrapping_shl(b & 31),
        Opcode::Shr => a.wrapping_shr(b & 31),
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Lop3 => a ^ b ^ c,
        Opcode::Popc => a.count_ones(),
        other => panic!("{other} is not a 32-bit integer op"),
    }
}

/// Computes a 64-bit (register-pair) integer result.
///
/// * `IADD64`: `a + b`;
/// * `MOV64`: `a`;
/// * `LEA64`: `a + (sext(b as i32) << c)`.
///
/// # Panics
///
/// Panics on non-wide opcodes.
#[inline]
pub fn alu64(op: Opcode, a: u64, b: u64, c: u64) -> u64 {
    match op {
        Opcode::Iadd64 => a.wrapping_add(b),
        Opcode::Mov64 => a,
        Opcode::Lea64 => a.wrapping_add(((b as u32 as i32) as i64 as u64).wrapping_shl(c as u32)),
        other => panic!("{other} is not a wide integer op"),
    }
}

/// Computes an FPU result on f32 bit patterns.
///
/// # Panics
///
/// Panics on non-FPU opcodes.
#[inline]
pub fn fpu(op: Opcode, a: u32, b: u32, c: u32) -> u32 {
    let (fa, fb, fc) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
    let r = match op {
        Opcode::Fadd => fa + fb,
        Opcode::Fmul => fa * fb,
        Opcode::Ffma => fa.mul_add(fb, fc),
        Opcode::Mufu => 1.0 / fa,
        other => panic!("{other} is not an FPU op"),
    };
    r.to_bits()
}

/// [`alu32`] on all 32 lanes.
///
/// # Panics
///
/// Panics on opcodes that are not 32-bit integer operations, whatever the
/// exec mask: callers skip instructions with no active lane.
pub fn alu32_lanes(op: Opcode, a: &Column, b: &Column, c: &Column) -> Column {
    dispatch_lanes!(
        alu32,
        op,
        a,
        b,
        c,
        [Iadd3, Imad, Mov, Imnmx, Shl, Shr, And, Or, Xor, Lop3, Popc]
    )
}

/// [`alu64`] on all 32 lanes.
///
/// # Panics
///
/// Panics on non-wide opcodes (see [`alu32_lanes`]).
pub fn alu64_lanes(op: Opcode, a: &Column64, b: &Column64, c: &Column64) -> Column64 {
    dispatch_lanes!(alu64, op, a, b, c, [Iadd64, Mov64, Lea64])
}

/// [`fpu`] on all 32 lanes.
///
/// # Panics
///
/// Panics on non-FPU opcodes (see [`alu32_lanes`]).
pub fn fpu_lanes(op: Opcode, a: &Column, b: &Column, c: &Column) -> Column {
    dispatch_lanes!(fpu, op, a, b, c, [Fadd, Fmul, Ffma, Mufu])
}

/// `ISETP` on all 32 lanes: bit `l` of the result is [`CmpOp::eval`] on
/// lane `l`'s sign-extended operands.
pub fn isetp_lanes(cmp: CmpOp, a: &Column, b: &Column) -> LaneMask {
    #[inline(always)]
    fn fold(a: &Column, b: &Column, f: impl Fn(i64, i64) -> bool) -> LaneMask {
        (0..WARP_SIZE)
            .fold(0, |m, l| m | ((f(a[l] as i32 as i64, b[l] as i32 as i64) as LaneMask) << l))
    }
    match cmp {
        CmpOp::Eq => fold(a, b, |x, y| x == y),
        CmpOp::Ne => fold(a, b, |x, y| x != y),
        CmpOp::Lt => fold(a, b, |x, y| x < y),
        CmpOp::Le => fold(a, b, |x, y| x <= y),
        CmpOp::Gt => fold(a, b, |x, y| x > y),
        CmpOp::Ge => fold(a, b, |x, y| x >= y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_isa::OpcodeClass;
    use lmi_telemetry::SplitMix64;

    #[test]
    fn integer_semantics() {
        assert_eq!(alu32(Opcode::Iadd3, 1, 2, 3), 6);
        assert_eq!(alu32(Opcode::Imad, 3, 4, 5), 17);
        assert_eq!(alu32(Opcode::Iadd3, u32::MAX, 1, 0), 0, "wrapping");
        assert_eq!(alu32(Opcode::Imnmx, 5, 3, 0), 3);
        assert_eq!(alu32(Opcode::Imnmx, 5, 3, 1), 5);
        assert_eq!(alu32(Opcode::Imnmx, (-5i32) as u32, 3, 0), (-5i32) as u32);
        assert_eq!(alu32(Opcode::Shl, 1, 4, 0), 16);
        assert_eq!(alu32(Opcode::Shr, 0x80000000, 31, 0), 1);
        assert_eq!(alu32(Opcode::And, 0b1100, 0b1010, 0), 0b1000);
        assert_eq!(alu32(Opcode::Popc, 0xFF, 0, 0), 8);
    }

    #[test]
    fn wide_semantics() {
        assert_eq!(alu64(Opcode::Iadd64, 0x1_0000_0000, 0xFFFF_FFFF, 0), 0x1_FFFF_FFFF);
        assert_eq!(alu64(Opcode::Mov64, 42, 0, 0), 42);
        assert_eq!(alu64(Opcode::Lea64, 0x1000, 4, 3), 0x1000 + 32);
        // Negative LEA index sign-extends.
        assert_eq!(alu64(Opcode::Lea64, 0x1000, (-1i32) as u32 as u64, 2), 0x1000 - 4);
    }

    #[test]
    fn fpu_semantics() {
        let two = 2.0f32.to_bits();
        let three = 3.0f32.to_bits();
        assert_eq!(f32::from_bits(fpu(Opcode::Fadd, two, three, 0)), 5.0);
        assert_eq!(f32::from_bits(fpu(Opcode::Fmul, two, three, 0)), 6.0);
        assert_eq!(f32::from_bits(fpu(Opcode::Ffma, two, three, two)), 8.0);
        assert_eq!(f32::from_bits(fpu(Opcode::Mufu, two, 0, 0)), 0.5);
    }

    /// Edge-case f32 bit patterns: NaNs (quiet, signalling, negative),
    /// ±inf, ±0, subnormals and the extremes of the normal range.
    const F32_EDGES: [u32; 12] = [
        0x7FC0_0000,
        0x7F80_0001,
        0xFFC0_0001,
        0x7F80_0000,
        0xFF80_0000,
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807F_FFFF,
        0x0080_0000,
        0x7F7F_FFFF,
        0x3F80_0000,
    ];

    /// One random 32-lane column: mostly SplitMix64 bits, with edge
    /// patterns (f32 specials, small signed integers, shift counts)
    /// sprinkled in.
    fn column32(rng: &mut SplitMix64) -> [u32; WARP_SIZE] {
        std::array::from_fn(|_| match rng.below(4) {
            0 => F32_EDGES[rng.below(F32_EDGES.len() as u64) as usize],
            1 => (rng.below(80) as i32 - 40) as u32,
            _ => rng.next_u32(),
        })
    }

    /// One random 64-bit column; operand `b` of `LEA64` is a sign-extended
    /// 32-bit index, so negative indices appear both as `i32` bit patterns
    /// and fully sign-extended.
    fn column64(rng: &mut SplitMix64) -> [u64; WARP_SIZE] {
        std::array::from_fn(|_| match rng.below(4) {
            0 => (rng.below(64) as i64 - 32) as u64,
            1 => (rng.below(64) as i32 - 32) as u32 as u64,
            _ => rng.next_u64(),
        })
    }

    fn ops_of(class: OpcodeClass) -> impl Iterator<Item = Opcode> {
        Opcode::ALL.into_iter().filter(move |op| op.class() == class && *op != Opcode::Isetp)
    }

    #[test]
    fn lane_forms_match_the_scalar_semantics_bit_for_bit() {
        let mut rng = SplitMix64::new(0x1A7E_5EED);
        let (mut int32, mut int64, mut fp) = (0, 0, 0);
        for _ in 0..64 {
            let (a, b, c) = (column32(&mut rng), column32(&mut rng), column32(&mut rng));
            let (a64, b64) = (column64(&mut rng), column64(&mut rng));
            // LEA64's shift amount is a small immediate in practice; cover
            // those and arbitrary bits.
            let c64: [u64; WARP_SIZE] =
                std::array::from_fn(|l| if l % 2 == 0 { rng.below(8) } else { rng.next_u64() });
            for op in ops_of(OpcodeClass::IntAlu) {
                if op.is_wide() {
                    let got = alu64_lanes(op, &a64, &b64, &c64);
                    for l in 0..WARP_SIZE {
                        assert_eq!(got[l], alu64(op, a64[l], b64[l], c64[l]), "{op} lane {l}");
                    }
                    int64 += 1;
                } else {
                    let got = alu32_lanes(op, &a, &b, &c);
                    for l in 0..WARP_SIZE {
                        assert_eq!(got[l], alu32(op, a[l], b[l], c[l]), "{op} lane {l}");
                    }
                    int32 += 1;
                }
            }
            for op in ops_of(OpcodeClass::Fpu) {
                let got = fpu_lanes(op, &a, &b, &c);
                for l in 0..WARP_SIZE {
                    // Bit equality, so NaN payloads must agree too.
                    assert_eq!(got[l], fpu(op, a[l], b[l], c[l]), "{op} lane {l}");
                }
                fp += 1;
            }
            for cmp in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let got = isetp_lanes(cmp, &a, &b);
                for l in 0..WARP_SIZE {
                    let want = cmp.eval(a[l] as i32 as i64, b[l] as i32 as i64);
                    assert_eq!(got & (1 << l) != 0, want, "{cmp:?} lane {l}");
                }
            }
        }
        assert_eq!((int32, int64, fp), (64 * 11, 64 * 3, 64 * 4), "every opcode covered");
    }

    #[test]
    #[should_panic(expected = "has no alu64 semantics")]
    fn lane_forms_reject_foreign_opcodes() {
        let z = [0; WARP_SIZE];
        alu64_lanes(Opcode::Iadd3, &z, &z, &z);
    }
}
