//! Generative kernel recipes with a safety envelope.
//!
//! A [`Recipe`] is a small, serializable description of one random kernel
//! over the full `lmi-compiler` IR surface: multiple global buffers passed
//! as parameters, a static shared buffer, a stack buffer, per-thread device
//! `malloc`/`free`, nested loops, a divergent branch, and mixed-width
//! (4- and 8-byte, line-straddling) loads and stores.
//!
//! The generator only emits recipes inside the *safety envelope*: every
//! access index is bounded so the kernel is provably in-bounds by
//! construction (see [`Recipe::assert_safe`]). The mutation layer in
//! [`crate::defect`] then injects exactly one classified defect by stepping
//! outside the envelope.

use lmi_compiler::ir::{CmpKind, Function, FunctionBuilder, IBinOp, Region, Ty, ValueId};
use lmi_telemetry::SplitMix64;

use crate::defect::{Defect, DefectClass};

/// Threads per launch: one full warp (`grid(1).block(32)`), so divergence
/// splits the warp in half and warp-level accesses stay deterministic.
pub const THREADS: u32 = 32;

/// A global kernel-argument buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufSpec {
    /// Buffer size in 4-byte elements. Always a power of two, so the LMI
    /// extent equals the footprint and the first byte past the end escapes
    /// the encoded bounds.
    pub elems: u32,
}

/// Which buffer an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// Global buffer `i` (kernel parameter `i`).
    Global(u8),
    /// The static shared buffer.
    Shared,
    /// The per-thread stack buffer.
    Local,
    /// The per-thread device-heap buffer.
    Heap,
}

impl Loc {
    /// `true` when the access index is `tid`-scaled (global/shared buffers
    /// are shared across the warp; local/heap buffers are per-thread).
    pub fn tid_indexed(self) -> bool {
        matches!(self, Loc::Global(_) | Loc::Shared)
    }
}

/// One memory access in the kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Target buffer.
    pub loc: Loc,
    /// Element offset. For `tid`-indexed buffers the accessed element is
    /// `tid + off` (narrow) or `2*tid + off` (wide, so 8-byte lanes never
    /// overlap); for per-thread buffers it is `off` directly.
    pub off: u32,
    /// 8-byte access (width 8 straddles a cache line when 4-aligned only).
    pub wide: bool,
    /// Store (`true`) or load (`false`).
    pub store: bool,
    /// Divergent arm: 0 = `tid < 16` branch, 1 = `tid >= 16` branch,
    /// 2 = both (emitted after reconvergence). Ignored when the recipe is
    /// not divergent.
    pub arm: u8,
}

/// A complete kernel description. `build` expands it deterministically
/// into an IR [`Function`]; equal recipes produce equal kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// Generator seed (carried for reproducer rendering).
    pub seed: u64,
    /// Global buffers (at least one; buffer 0 receives the published
    /// accumulator).
    pub globals: Vec<BufSpec>,
    /// Shared-buffer elements (0 = no shared buffer).
    pub shared_elems: u32,
    /// Stack-buffer elements (0 = no stack buffer).
    pub local_elems: u32,
    /// Device-heap buffer elements per thread (0 = no heap use).
    pub heap_elems: u32,
    /// Outer loop trip count (0 = straight line).
    pub outer_trips: u8,
    /// Inner (nested) loop trip count (0 = no inner loop).
    pub inner_trips: u8,
    /// Split the warp on `tid < 16` around the body ops.
    pub divergent: bool,
    /// The access sequence.
    pub ops: Vec<OpSpec>,
}

impl Recipe {
    /// Element count of the buffer `loc` refers to.
    pub fn elems_of(&self, loc: Loc) -> u32 {
        match loc {
            Loc::Global(i) => self.globals[i as usize].elems,
            Loc::Shared => self.shared_elems,
            Loc::Local => self.local_elems,
            Loc::Heap => self.heap_elems,
        }
    }

    /// Highest element index `op` can touch (inclusive).
    fn max_index(op: &OpSpec) -> u32 {
        let span = if op.wide { 2 } else { 1 };
        if op.loc.tid_indexed() {
            let stride = if op.wide { 2 } else { 1 };
            op.off + stride * (THREADS - 1) + span
        } else {
            op.off + span
        }
    }

    /// Panics unless every op stays inside its buffer — the generator's
    /// safety envelope, re-checked so a generator bug cannot masquerade as
    /// a mechanism false positive.
    pub fn assert_safe(&self) {
        for (i, op) in self.ops.iter().enumerate() {
            let elems = self.elems_of(op.loc);
            assert!(elems > 0, "op {i} targets an absent buffer ({:?})", op.loc);
            assert!(
                Recipe::max_index(op) <= elems,
                "op {i} escapes its buffer: {:?} reaches element {} of {elems}",
                op,
                Recipe::max_index(op)
            );
        }
    }
}

/// Draws an in-envelope offset for an op shape.
fn safe_off(rng: &mut SplitMix64, loc: Loc, wide: bool, elems: u32) -> u32 {
    let limit = if loc.tid_indexed() {
        let stride = if wide { 2u32 } else { 1 };
        elems - (stride * (THREADS - 1) + if wide { 2 } else { 1 })
    } else {
        elems - if wide { 2 } else { 1 }
    };
    rng.below(limit as u64 + 1) as u32
}

/// Generates a random recipe inside the safety envelope.
pub fn generate(seed: u64) -> Recipe {
    let mut rng = SplitMix64::new(seed);
    let globals: Vec<BufSpec> =
        (0..rng.range(1, 4)).map(|_| BufSpec { elems: 64 << rng.below(5) }).collect();
    let shared_elems = if rng.chance(0.6) { 64 << rng.below(3) } else { 0 };
    let local_elems = if rng.chance(0.6) { 64 << rng.below(2) } else { 0 };
    let heap_elems = if rng.chance(0.6) { 16 << rng.below(3) } else { 0 };
    let divergent = rng.chance(0.5);
    let outer_trips = if rng.chance(0.5) { rng.range(1, 4) as u8 } else { 0 };
    let inner_trips = if outer_trips > 0 && rng.chance(0.4) { rng.range(1, 3) as u8 } else { 0 };

    let mut locs = vec![];
    for i in 0..globals.len() {
        locs.push(Loc::Global(i as u8));
    }
    if shared_elems > 0 {
        locs.push(Loc::Shared);
    }
    if local_elems > 0 {
        locs.push(Loc::Local);
    }
    if heap_elems > 0 {
        locs.push(Loc::Heap);
    }

    let mut recipe = Recipe {
        seed,
        globals,
        shared_elems,
        local_elems,
        heap_elems,
        outer_trips,
        inner_trips,
        divergent,
        ops: Vec::new(),
    };
    for _ in 0..rng.range(2, 9) {
        let loc = *rng.choose(&locs);
        let wide = rng.chance(0.25);
        let op = OpSpec {
            loc,
            off: safe_off(&mut rng, loc, wide, recipe.elems_of(loc)),
            wide,
            store: rng.chance(0.5),
            arm: rng.below(3) as u8,
        };
        recipe.ops.push(op);
    }
    recipe.assert_safe();
    recipe
}

/// Expands a recipe (and an optional injected defect) into a well-typed
/// kernel [`Function`].
///
/// Spatial defects are already baked into the recipe's offsets by
/// [`crate::defect::mutate`]; temporal and cast defects change the emitted
/// structure here: `Uaf` frees the heap pointer right before the target op,
/// `DoubleFree` frees it twice in the epilogue, and `IntToPtrEscape` emits
/// a forbidden `inttoptr` cast the compiler must reject.
pub fn build(recipe: &Recipe, defect: Option<&Defect>) -> Function {
    let class = defect.map(|d| d.class);
    let mut b = FunctionBuilder::new("conformance");

    let globals: Vec<ValueId> =
        recipe.globals.iter().map(|_| b.param(Ty::Ptr(Region::Global))).collect();
    let tid = b.tid();
    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    let local_ptr = (recipe.local_elems > 0).then(|| b.alloca(u64::from(recipe.local_elems) * 4));
    let shared_ptr =
        (recipe.shared_elems > 0).then(|| b.shared_alloc(u64::from(recipe.shared_elems) * 4));
    let heap_ptr = (recipe.heap_elems > 0).then(|| {
        let size = b.const_i32(recipe.heap_elems as i32 * 4);
        b.malloc(size)
    });
    let acc = b.var(zero);

    let outer_iter = (recipe.outer_trips > 0).then(|| b.var(zero));
    let inner_iter = (recipe.inner_trips > 0).then(|| b.var(zero));

    let outer_body = outer_iter.map(|iter| {
        let body = b.new_block();
        b.jump(body);
        b.switch_to(body);
        // Reset the inner counter at each outer iteration.
        if let Some(inner) = inner_iter {
            b.write_var(inner, zero);
        }
        (iter, body)
    });
    let inner_body = inner_iter.map(|iter| {
        let body = b.new_block();
        b.jump(body);
        b.switch_to(body);
        (iter, body)
    });

    let emit_op = |b: &mut FunctionBuilder, index: usize, op: &OpSpec| {
        if class == Some(DefectClass::Uaf) && defect.map(|d| d.op) == Some(index) {
            // The injected temporal defect: the buffer dies here, the
            // access below dangles.
            b.free(heap_ptr.expect("Uaf mutation forces a heap buffer"));
        }
        let base = match op.loc {
            Loc::Global(i) => globals[i as usize],
            Loc::Shared => shared_ptr.expect("op targets an absent shared buffer"),
            Loc::Local => local_ptr.expect("op targets an absent stack buffer"),
            Loc::Heap => heap_ptr.expect("op targets an absent heap buffer"),
        };
        let off = b.const_i32(op.off as i32);
        let index_v = if op.loc.tid_indexed() {
            let scaled = if op.wide { b.ibin(IBinOp::Add, tid, tid) } else { tid };
            b.ibin(IBinOp::Add, scaled, off)
        } else {
            off
        };
        let elem = b.gep(base, index_v, 4);
        match (op.wide, op.store) {
            (true, true) => {
                let v = b.const_i64(0x5AD0_F00D_0000_0001 + index as i64);
                b.store(elem, v, 8);
            }
            (true, false) => {
                // The i64 result cannot feed the i32 accumulator; the load
                // itself is the point (width-8 path, line straddling).
                let _ = b.load_i64(elem);
            }
            (false, true) => {
                let v = b.read_var(acc);
                b.store(elem, v, 4);
            }
            (false, false) => {
                let v = b.load_i32(elem);
                let cur = b.read_var(acc);
                let folded =
                    b.ibin(if index.is_multiple_of(2) { IBinOp::Add } else { IBinOp::Xor }, cur, v);
                b.write_var(acc, folded);
            }
        }
    };

    if recipe.divergent {
        let half = b.const_i32(THREADS as i32 / 2);
        let cond = b.cmp(CmpKind::Lt, tid, half);
        let then_b = b.new_block();
        let else_b = b.new_block();
        let merge = b.new_block();
        b.branch(cond, then_b, else_b);
        b.switch_to(then_b);
        for (i, op) in recipe.ops.iter().enumerate().filter(|(_, op)| op.arm == 0) {
            emit_op(&mut b, i, op);
        }
        b.jump(merge);
        b.switch_to(else_b);
        for (i, op) in recipe.ops.iter().enumerate().filter(|(_, op)| op.arm == 1) {
            emit_op(&mut b, i, op);
        }
        b.jump(merge);
        b.switch_to(merge);
        for (i, op) in recipe.ops.iter().enumerate().filter(|(_, op)| op.arm >= 2) {
            emit_op(&mut b, i, op);
        }
    } else {
        for (i, op) in recipe.ops.iter().enumerate() {
            emit_op(&mut b, i, op);
        }
    }

    // Loop latches, innermost first (do-while shape: trips >= 1 iterations).
    if let Some((iter, body)) = inner_body {
        let iv = b.read_var(iter);
        let next = b.ibin(IBinOp::Add, iv, one);
        b.write_var(iter, next);
        let n = b.const_i32(recipe.inner_trips as i32);
        let c = b.cmp(CmpKind::Lt, next, n);
        let after = b.new_block();
        b.branch(c, body, after);
        b.switch_to(after);
    }
    if let Some((iter, body)) = outer_body {
        let iv = b.read_var(iter);
        let next = b.ibin(IBinOp::Add, iv, one);
        b.write_var(iter, next);
        let n = b.const_i32(recipe.outer_trips as i32);
        let c = b.cmp(CmpKind::Lt, next, n);
        let after = b.new_block();
        b.branch(c, body, after);
        b.switch_to(after);
    }

    // Epilogue: release the heap buffer (unless the defect already freed
    // it, or *is* the double free), publish the accumulator.
    if let Some(hp) = heap_ptr {
        match class {
            Some(DefectClass::Uaf) => {}
            Some(DefectClass::DoubleFree) => {
                b.free(hp);
                b.free(hp);
            }
            _ => b.free(hp),
        }
    }
    if class == Some(DefectClass::IntToPtrEscape) {
        let forged = b.const_i64(lmi_mem::layout::GLOBAL_BASE as i64);
        let p = b.int_to_ptr(forged, Region::Global);
        let v = b.read_var(acc);
        b.store(p, v, 4);
    }
    let out = b.gep(globals[0], tid, 4);
    let v = b.read_var(acc);
    b.store(out, v, 4);
    b.ret();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_recipes_stay_in_envelope_and_build() {
        for seed in 0..200 {
            let r = generate(seed);
            r.assert_safe();
            assert!(!r.globals.is_empty());
            assert!(!r.ops.is_empty());
            let f = build(&r, None);
            assert!(f.op_count() > 0);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let r = generate(42);
        assert_eq!(build(&r, None), build(&r, None));
    }

    #[test]
    fn generator_covers_the_ir_surface() {
        let mut saw = (false, false, false, false, false, false, false);
        for seed in 0..400 {
            let r = generate(seed);
            saw.0 |= r.globals.len() > 1;
            saw.1 |= r.shared_elems > 0;
            saw.2 |= r.local_elems > 0;
            saw.3 |= r.heap_elems > 0;
            saw.4 |= r.divergent;
            saw.5 |= r.inner_trips > 0;
            saw.6 |= r.ops.iter().any(|o| o.wide);
        }
        assert!(saw.0, "multi-buffer params");
        assert!(saw.1, "shared buffers");
        assert!(saw.2, "stack buffers");
        assert!(saw.3, "device heap");
        assert!(saw.4, "divergence");
        assert!(saw.5, "nested loops");
        assert!(saw.6, "line-straddling widths");
    }
}
