//! Automatic case reduction: delta-debugging over the recipe, then over
//! the built function's IR instruction stream.
//!
//! The shrinker answers one question over and over — *does the reduced
//! case still fail?* — where "fail" means "LMI still detects the injected
//! defect" (or, for the `inttoptr` class, "the compiler still rejects the
//! kernel"). Every probe is a deterministic single-point run, so the
//! shrink trajectory is bit-identical across engine configurations.

use lmi_compiler::ir::{Function, InstKind, Terminator};
use lmi_compiler::{compile, CompileError, CompileOptions};

use crate::defect::{Defect, DefectClass};
use crate::oracle::{lmi_run, EnginePoint};
use crate::recipe::{build, BufSpec, Loc, Recipe};

/// A minimized failing case.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The recipe-level minimum (rebuilds the phase-1 kernel).
    pub recipe: Recipe,
    /// The defect, with its op index remapped to the shrunk op list.
    pub defect: Defect,
    /// The IR-level minimum after phase 2 (op removal below what the
    /// recipe can express).
    pub function: Function,
    /// Instruction count of [`Reproducer::function`].
    pub op_count: usize,
}

/// `true` when the case still fails: the compiler rejects the cast class,
/// or an LMI-only run at `point` records a violation.
fn still_fails(
    func: &Function,
    globals: &[BufSpec],
    class: DefectClass,
    point: EnginePoint,
) -> bool {
    if class == DefectClass::IntToPtrEscape {
        return matches!(
            compile(func, CompileOptions::default()),
            Err(CompileError::IntToPtrForbidden { .. })
        );
    }
    match lmi_run(func, globals, point) {
        Ok(stats) => stats.violated(),
        Err(_) => false,
    }
}

fn recipe_fails(recipe: &Recipe, defect: &Defect, point: EnginePoint) -> bool {
    let func = build(recipe, Some(defect));
    still_fails(&func, &recipe.globals, defect.class, point)
}

/// Removes `ops[lo..hi]` from the recipe, remapping the defect's target op
/// index. Returns `None` when the target itself would be removed (for
/// classes where the target matters).
fn without_ops(recipe: &Recipe, defect: &Defect, lo: usize, hi: usize) -> Option<(Recipe, Defect)> {
    let targeted = matches!(
        defect.class,
        DefectClass::SpatialNear | DefectClass::SpatialFar | DefectClass::Uaf
    );
    if targeted && (lo..hi).contains(&defect.op) {
        return None;
    }
    let mut r = recipe.clone();
    r.ops.drain(lo..hi);
    let mut d = *defect;
    if targeted {
        if d.op >= hi {
            d.op -= hi - lo;
        }
    } else {
        d.op = 0;
    }
    Some((r, d))
}

/// Phase 1a: chunked delta-debugging over the op list.
fn ddmin_ops(recipe: &mut Recipe, defect: &mut Defect, point: EnginePoint) {
    let mut chunk = recipe.ops.len().div_ceil(2).max(1);
    loop {
        let mut removed_any = false;
        let mut lo = 0;
        while lo < recipe.ops.len() {
            let hi = (lo + chunk).min(recipe.ops.len());
            if let Some((r, d)) = without_ops(recipe, defect, lo, hi) {
                if recipe_fails(&r, &d, point) {
                    *recipe = r;
                    *defect = d;
                    removed_any = true;
                    continue; // same lo, next chunk shifted into place
                }
            }
            lo = hi;
        }
        if removed_any {
            continue; // retry at the same granularity
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
}

/// Phase 1b: structural simplifications — kill loops and divergence, drop
/// buffers no remaining op uses.
fn simplify_structure(recipe: &mut Recipe, defect: &mut Defect, point: EnginePoint) {
    let attempt = |recipe: &mut Recipe, defect: &Defect, f: &dyn Fn(&mut Recipe)| {
        let mut r = recipe.clone();
        f(&mut r);
        if r != *recipe && recipe_fails(&r, defect, point) {
            *recipe = r;
        }
    };
    attempt(recipe, defect, &|r| {
        r.outer_trips = 0;
        r.inner_trips = 0;
    });
    attempt(recipe, defect, &|r| r.inner_trips = 0);
    attempt(recipe, defect, &|r| r.divergent = false);
    if !recipe.ops.iter().any(|op| op.loc == Loc::Shared) {
        attempt(recipe, defect, &|r| r.shared_elems = 0);
    }
    if !recipe.ops.iter().any(|op| op.loc == Loc::Local) {
        attempt(recipe, defect, &|r| r.local_elems = 0);
    }
    let temporal = matches!(defect.class, DefectClass::Uaf | DefectClass::DoubleFree);
    if !temporal && !recipe.ops.iter().any(|op| op.loc == Loc::Heap) {
        attempt(recipe, defect, &|r| r.heap_elems = 0);
    }
    // Globals can only be truncated from the top (ops index them by
    // position, and buffer 0 receives the published accumulator).
    let max_used = recipe
        .ops
        .iter()
        .filter_map(|op| match op.loc {
            Loc::Global(i) => Some(i as usize),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    if max_used + 1 < recipe.globals.len() {
        attempt(recipe, defect, &|r| r.globals.truncate(max_used + 1));
    }
}

/// `true` when the listed instruction at `blocks[b].insts[i]` can be
/// dropped from the schedule: nothing still listed consumes its value, no
/// terminator branches on it, and (for variable writes) no surviving read
/// observes the variable.
fn removable(func: &Function, b: usize, i: usize) -> bool {
    let id = func.blocks[b].insts[i];
    for (bb, ii, other) in func.iter_insts() {
        if (bb, ii) == (b, i) {
            continue;
        }
        if func.insts[other].kind.operands().any(|v| v == id) {
            return false;
        }
    }
    for block in &func.blocks {
        if let Terminator::Branch { cond, .. } = block.term {
            if cond == id {
                return false;
            }
        }
    }
    if let InstKind::WriteVar { var, .. } = func.insts[id].kind {
        let read_elsewhere = func.iter_insts().any(|(bb, ii, other)| {
            (bb, ii) != (b, i) && func.insts[other].kind == InstKind::ReadVar(var)
        });
        if read_elsewhere {
            return false;
        }
    }
    true
}

/// Phase 2: IR-level delta — greedily unschedule instructions (dead values
/// and droppable effects) while the case keeps failing.
fn ddmin_ir(func: &mut Function, globals: &[BufSpec], class: DefectClass, point: EnginePoint) {
    loop {
        let mut removed_any = false;
        for b in 0..func.blocks.len() {
            let mut i = func.blocks[b].insts.len();
            while i > 0 {
                i -= 1;
                if !removable(func, b, i) {
                    continue;
                }
                let id = func.blocks[b].insts.remove(i);
                if still_fails(func, globals, class, point) {
                    removed_any = true;
                } else {
                    func.blocks[b].insts.insert(i, id);
                }
            }
        }
        if !removed_any {
            return;
        }
    }
}

/// Shrinks a failing `(recipe, defect)` case to a minimal reproducer.
///
/// # Panics
///
/// Panics if the input case does not fail to begin with — the shrinker's
/// contract is "preserve the failure", which an already-passing case makes
/// meaningless.
pub fn shrink(recipe: &Recipe, defect: &Defect, point: EnginePoint) -> Reproducer {
    assert!(
        recipe_fails(recipe, defect, point),
        "shrink() requires a failing case (class {}, seed {})",
        defect.class.label(),
        recipe.seed
    );
    let mut r = recipe.clone();
    let mut d = *defect;
    ddmin_ops(&mut r, &mut d, point);
    simplify_structure(&mut r, &mut d, point);
    ddmin_ops(&mut r, &mut d, point); // structure removal may free more ops

    let mut func = build(&r, Some(&d));
    ddmin_ir(&mut func, &r.globals, d.class, point);
    debug_assert!(still_fails(&func, &r.globals, d.class, point));
    let op_count = func.op_count();
    Reproducer { recipe: r, defect: d, function: func, op_count }
}

fn loc_literal(loc: Loc) -> String {
    match loc {
        Loc::Global(i) => format!("Loc::Global({i})"),
        Loc::Shared => "Loc::Shared".into(),
        Loc::Local => "Loc::Local".into(),
        Loc::Heap => "Loc::Heap".into(),
    }
}

impl Reproducer {
    /// Renders the minimized case as a ready-to-paste regression test: the
    /// phase-1 recipe as a literal, the seed in the test name, and the
    /// class-appropriate assertion.
    pub fn to_test_source(&self) -> String {
        let r = &self.recipe;
        let globals = r
            .globals
            .iter()
            .map(|b| format!("BufSpec {{ elems: {} }}", b.elems))
            .collect::<Vec<_>>()
            .join(", ");
        let ops = r
            .ops
            .iter()
            .map(|op| {
                format!(
                    "OpSpec {{ loc: {}, off: {}, wide: {}, store: {}, arm: {} }}",
                    loc_literal(op.loc),
                    op.off,
                    op.wide,
                    op.store,
                    op.arm
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let assertion = if self.defect.class == DefectClass::IntToPtrEscape {
            "    let func = build(&recipe, Some(&defect));\n\
             \x20   assert!(\n\
             \x20       matches!(\n\
             \x20           lmi::compiler::compile(&func, lmi::compiler::CompileOptions::default()),\n\
             \x20           Err(lmi::compiler::CompileError::IntToPtrForbidden { .. })\n\
             \x20       ),\n\
             \x20       \"the compiler must reject the forged pointer\"\n\
             \x20   );"
                .to_string()
        } else {
            format!(
                "    let func = build(&recipe, Some(&defect));\n\
                 \x20   let point = EnginePoint {{ sim_threads: 1, mem_banks: 1 }};\n\
                 \x20   let stats = lmi_run(&func, &recipe.globals, point).expect(\"compiles\");\n\
                 \x20   assert!(stats.violated(), \"lmi must detect the {} defect\");",
                self.defect.class.label()
            )
        };
        format!(
            "// Auto-shrunk reproducer: seed {seed}, class {class}, {ops_n} recipe op(s),\n\
             // {ir_n} IR ops after instruction-level reduction.\n\
             #[test]\n\
             fn shrunk_{class_ident}_seed_{seed}() {{\n\
             \x20   use lmi::conformance::*;\n\
             \x20   let recipe = Recipe {{\n\
             \x20       seed: {seed},\n\
             \x20       globals: vec![{globals}],\n\
             \x20       shared_elems: {shared},\n\
             \x20       local_elems: {local},\n\
             \x20       heap_elems: {heap},\n\
             \x20       outer_trips: {outer},\n\
             \x20       inner_trips: {inner},\n\
             \x20       divergent: {divergent},\n\
             \x20       ops: vec![{ops}],\n\
             \x20   }};\n\
             \x20   let defect = Defect {{ class: DefectClass::{class_variant:?}, op: {op} }};\n\
             {assertion}\n\
             }}\n",
            seed = r.seed,
            class = self.defect.class.label(),
            class_ident = self.defect.class.label().replace('-', "_"),
            class_variant = self.defect.class,
            ops_n = r.ops.len(),
            ir_n = self.op_count,
            globals = globals,
            shared = r.shared_elems,
            local = r.local_elems,
            heap = r.heap_elems,
            outer = r.outer_trips,
            inner = r.inner_trips,
            divergent = r.divergent,
            op = self.defect.op,
            ops = ops,
            assertion = assertion,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::{mutate, ALL_CLASSES};
    use crate::recipe::generate;
    use lmi_telemetry::SplitMix64;

    const P: EnginePoint = EnginePoint { sim_threads: 1, mem_banks: 1 };

    #[test]
    fn shrunk_cases_still_fail_and_get_small() {
        let mut rng = SplitMix64::new(99);
        for seed in [3u64, 17, 54] {
            let safe = generate(seed);
            for class in ALL_CLASSES {
                let (mutant, defect) = mutate(&safe, class, &mut rng);
                let rep = shrink(&mutant, &defect, P);
                assert!(
                    still_fails(&rep.function, &rep.recipe.globals, class, P),
                    "seed {seed} class {} lost its failure in shrinking",
                    class.label()
                );
                assert!(
                    rep.op_count <= 12,
                    "seed {seed} class {} shrank to {} IR ops (> 12)",
                    class.label(),
                    rep.op_count
                );
                assert!(rep.recipe.ops.len() <= mutant.ops.len());
            }
        }
    }

    #[test]
    fn reproducer_source_mentions_seed_and_class() {
        let mut rng = SplitMix64::new(5);
        let (mutant, defect) =
            mutate(&generate(7), crate::defect::DefectClass::SpatialNear, &mut rng);
        let rep = shrink(&mutant, &defect, P);
        let src = rep.to_test_source();
        assert!(src.contains("seed 7"));
        assert!(src.contains("spatial-near"));
        assert!(src.contains("#[test]"));
        assert!(src.contains("Recipe {"));
    }
}
