//! Pure functional ALU semantics, shared by the SM issue logic and unit
//! tests.
//!
//! The scalar functions ([`alu32`], [`alu64`], [`fpu`]) define the
//! semantics. The `*_lanes` forms are what phase A executes: one dispatch
//! per warp-instruction around a 32-lane loop whose body is the scalar
//! function specialised to that operation, so both forms are one
//! definition. Each takes its unit's own operation enum, so every form is
//! total: they compute every lane — no operation can panic on any value —
//! and the caller writes back through the exec mask.

use lmi_isa::decoded::{AluOp, FpuOp, WideOp};
use lmi_isa::instr::CmpOp;

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

/// Matches `$op` once against every variant of `$ty`; each arm maps the
/// scalar `$scalar` with its operation fixed, which the compiler folds
/// into a straight-line lane loop.
macro_rules! dispatch_lanes {
    ($scalar:ident, $ty:ident, $op:expr, $a:expr, $b:expr, $c:expr, [$($name:ident),+ $(,)?]) => {
        match $op {
            $($ty::$name => map_lanes($a, $b, $c, |x, y, z| $scalar($ty::$name, x, y, z)),)+
        }
    };
}

/// Computes a 32-bit integer-ALU result.
#[inline]
pub fn alu32(op: AluOp, a: u32, b: u32, c: u32) -> u32 {
    match op {
        AluOp::Iadd3 => a.wrapping_add(b).wrapping_add(c),
        AluOp::Imad => a.wrapping_mul(b).wrapping_add(c),
        AluOp::Mov => a,
        AluOp::Imnmx => {
            if c == 0 {
                (a as i32).min(b as i32) as u32
            } else {
                (a as i32).max(b as i32) as u32
            }
        }
        AluOp::Shl => a.wrapping_shl(b & 31),
        AluOp::Shr => a.wrapping_shr(b & 31),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Lop3 => a ^ b ^ c,
        AluOp::Popc => a.count_ones(),
    }
}

/// Computes a 64-bit (register-pair) integer result.
///
/// * `IADD64`: `a + b`;
/// * `MOV64`: `a`;
/// * `LEA64`: `a + (sext(b as i32) << c)`.
#[inline]
pub fn alu64(op: WideOp, a: u64, b: u64, c: u64) -> u64 {
    match op {
        WideOp::Iadd64 => a.wrapping_add(b),
        WideOp::Mov64 => a,
        WideOp::Lea64 => a.wrapping_add(((b as u32 as i32) as i64 as u64).wrapping_shl(c as u32)),
    }
}

/// The canonical NaN an NVIDIA GPU writes for every f32 NaN result.
pub const CANONICAL_NAN: u32 = 0x7FFF_FFFF;

/// Computes an FPU result on f32 bit patterns. A NaN result is
/// [`CANONICAL_NAN`], whatever its inputs: Rust leaves NaN payloads
/// unspecified, and they would depend on how the compiler orders operands.
#[inline]
pub fn fpu(op: FpuOp, a: u32, b: u32, c: u32) -> u32 {
    let (fa, fb, fc) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
    let r = match op {
        FpuOp::Fadd => fa + fb,
        FpuOp::Fmul => fa * fb,
        FpuOp::Ffma => fa.mul_add(fb, fc),
        FpuOp::Mufu => 1.0 / fa,
    };
    if r.is_nan() {
        CANONICAL_NAN
    } else {
        r.to_bits()
    }
}

/// [`alu32`] on all 32 lanes.
pub fn alu32_lanes(op: AluOp, a: &Column, b: &Column, c: &Column) -> Column {
    dispatch_lanes!(
        alu32,
        AluOp,
        op,
        a,
        b,
        c,
        [Iadd3, Imad, Mov, Imnmx, Shl, Shr, And, Or, Xor, Lop3, Popc]
    )
}

/// [`alu64`] on all 32 lanes.
pub fn alu64_lanes(op: WideOp, a: &Column64, b: &Column64, c: &Column64) -> Column64 {
    dispatch_lanes!(alu64, WideOp, op, a, b, c, [Iadd64, Mov64, Lea64])
}

/// [`fpu`] on all 32 lanes.
pub fn fpu_lanes(op: FpuOp, a: &Column, b: &Column, c: &Column) -> Column {
    dispatch_lanes!(fpu, FpuOp, op, a, b, c, [Fadd, Fmul, Ffma, Mufu])
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
    use lmi_telemetry::SplitMix64;

    #[test]
    fn integer_semantics() {
        assert_eq!(alu32(AluOp::Iadd3, 1, 2, 3), 6);
        assert_eq!(alu32(AluOp::Imad, 3, 4, 5), 17);
        assert_eq!(alu32(AluOp::Iadd3, u32::MAX, 1, 0), 0, "wrapping");
        assert_eq!(alu32(AluOp::Imnmx, 5, 3, 0), 3);
        assert_eq!(alu32(AluOp::Imnmx, 5, 3, 1), 5);
        assert_eq!(alu32(AluOp::Imnmx, (-5i32) as u32, 3, 0), (-5i32) as u32);
        assert_eq!(alu32(AluOp::Shl, 1, 4, 0), 16);
        assert_eq!(alu32(AluOp::Shr, 0x80000000, 31, 0), 1);
        assert_eq!(alu32(AluOp::And, 0b1100, 0b1010, 0), 0b1000);
        assert_eq!(alu32(AluOp::Popc, 0xFF, 0, 0), 8);
    }

    #[test]
    fn wide_semantics() {
        assert_eq!(alu64(WideOp::Iadd64, 0x1_0000_0000, 0xFFFF_FFFF, 0), 0x1_FFFF_FFFF);
        assert_eq!(alu64(WideOp::Mov64, 42, 0, 0), 42);
        assert_eq!(alu64(WideOp::Lea64, 0x1000, 4, 3), 0x1000 + 32);
        // Negative LEA index sign-extends.
        assert_eq!(alu64(WideOp::Lea64, 0x1000, (-1i32) as u32 as u64, 2), 0x1000 - 4);
    }

    #[test]
    fn fpu_semantics() {
        let two = 2.0f32.to_bits();
        let three = 3.0f32.to_bits();
        assert_eq!(f32::from_bits(fpu(FpuOp::Fadd, two, three, 0)), 5.0);
        assert_eq!(f32::from_bits(fpu(FpuOp::Fmul, two, three, 0)), 6.0);
        assert_eq!(f32::from_bits(fpu(FpuOp::Ffma, two, three, two)), 8.0);
        assert_eq!(f32::from_bits(fpu(FpuOp::Mufu, two, 0, 0)), 0.5);
        let (nan, neg_nan) = (0x7F80_0001, 0xFFC0_0001);
        assert_eq!(fpu(FpuOp::Fadd, nan, neg_nan, 0), CANONICAL_NAN, "either payload would do");
        assert_eq!(fpu(FpuOp::Mufu, neg_nan, 0, 0), CANONICAL_NAN);
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

    const ALU: [AluOp; 11] = [
        AluOp::Iadd3,
        AluOp::Imad,
        AluOp::Mov,
        AluOp::Imnmx,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Lop3,
        AluOp::Popc,
    ];
    const WIDE: [WideOp; 3] = [WideOp::Iadd64, WideOp::Mov64, WideOp::Lea64];
    const FPU: [FpuOp; 4] = [FpuOp::Fadd, FpuOp::Fmul, FpuOp::Ffma, FpuOp::Mufu];

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
            for op in ALU {
                let got = alu32_lanes(op, &a, &b, &c);
                for l in 0..WARP_SIZE {
                    assert_eq!(got[l], alu32(op, a[l], b[l], c[l]), "{op:?} lane {l}");
                }
                int32 += 1;
            }
            for op in WIDE {
                let got = alu64_lanes(op, &a64, &b64, &c64);
                for l in 0..WARP_SIZE {
                    assert_eq!(got[l], alu64(op, a64[l], b64[l], c64[l]), "{op:?} lane {l}");
                }
                int64 += 1;
            }
            for op in FPU {
                let got = fpu_lanes(op, &a, &b, &c);
                for l in 0..WARP_SIZE {
                    // Bit equality, so NaN payloads must agree too.
                    assert_eq!(got[l], fpu(op, a[l], b[l], c[l]), "{op:?} lane {l}");
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
        assert_eq!((int32, int64, fp), (64 * 11, 64 * 3, 64 * 4), "every operation covered");
    }
}
