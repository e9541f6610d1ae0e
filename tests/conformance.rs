//! The conformance suite over the `lmi-conformance` generator: differential
//! fuzzing, §VIII temporal safety and the automatic shrinker.
//!
//! Random well-typed kernels spanning the full IR surface — multi-buffer
//! parameters, shared memory, stack buffers, device `malloc`/`free`,
//! divergent branches, nested loops, line-straddling widths — run through
//! the mechanism × engine oracle matrix:
//!
//! * **No false positives**: a safe-by-construction kernel never faults
//!   under any mechanism (correct-by-construction, delayed termination).
//! * **Semantic transparency**: every mechanism produces bit-identical
//!   global-buffer contents on safe kernels.
//! * **Detection by class**: one injected defect per class is caught by
//!   exactly the mechanisms whose design covers it (LMI all of them).
//! * **Engine determinism**: statistics and memory are bit-identical
//!   across `sim_threads` × `mem_banks` configurations.
//!
//! Pins on top of the matrix:
//!
//! * The use-after-free fuzz class asserts extent nullification end to
//!   end: the `free` poisons the dangling pointer (the EC faults the next
//!   dereference) and the forensics log attributes the fault to the FREE
//!   site with a positive poison-to-fault latency.
//! * The double-free class is validated by the device-runtime allocator
//!   and classified as `Temporal(DoubleFree)`.
//! * The shrinker regression pins a seed whose known-failing mutant must
//!   minimize to a bounded reproducer, bit-identically across engine
//!   thread counts.
//!
//! Seeded by `lmi-telemetry`'s SplitMix64 so failures reproduce exactly;
//! case budgets are modest because debug-mode CI runs each matrix case as
//! ten simulations (5 mechanisms × 2 engine points).

use lmi::conformance::{
    build, generate, lmi_run, mutate, run_case, shrink, DefectClass, EnginePoint, MechanismKind,
    OracleConfig, ALL_CLASSES,
};
use lmi::core::{TemporalKind, Violation};
use lmi::telemetry::SplitMix64;

const POINT: EnginePoint = EnginePoint { sim_threads: 1, mem_banks: 1 };

/// Seed base of the differential-fuzz tests, distinct from the crate's
/// unit tests, to widen net coverage.
const SEED_BASE: u64 = 0x00D1_FF00;

#[test]
fn safe_kernels_are_transparent_and_false_positive_free() {
    let cfg = OracleConfig::quick();
    let (mut saw_shared, mut saw_heap, mut saw_divergent, mut saw_nested) =
        (false, false, false, false);
    for case in 0..24 {
        let recipe = generate(SEED_BASE + case);
        saw_shared |= recipe.shared_elems > 0;
        saw_heap |= recipe.heap_elems > 0;
        saw_divergent |= recipe.divergent;
        saw_nested |= recipe.inner_trips > 0;
        let report = run_case(&recipe, None, &cfg)
            .unwrap_or_else(|f| panic!("case {case}: {f} (recipe {recipe:?})"));
        for m in &report.mechanisms {
            assert!(!m.detected, "case {case}: false positive under {}", m.mechanism.label());
        }
    }
    // The invariants above are only meaningful if the sample actually
    // exercised the interesting IR surface.
    assert!(saw_shared, "no safe case used shared memory");
    assert!(saw_heap, "no safe case used the device heap");
    assert!(saw_divergent, "no safe case diverged");
    assert!(saw_nested, "no safe case had nested loops");
}

#[test]
fn injected_defects_match_the_coverage_matrix() {
    let cfg = OracleConfig::quick();
    let mut rng = SplitMix64::new(SEED_BASE);
    let mut spatial = (0usize, 0usize);
    for case in 0..8 {
        let safe = generate(SEED_BASE + 100 + case);
        for class in ALL_CLASSES {
            let (mutant, defect) = mutate(&safe, class, &mut rng);
            // `run_case` internally enforces the full expectation matrix
            // (detect/miss per mechanism, violation classification, UAF
            // forensics, engine determinism) and fails loudly otherwise.
            let report = run_case(&mutant, Some(&defect), &cfg)
                .unwrap_or_else(|f| panic!("case {case} {}: {f}", class.label()));
            if class.is_spatial() {
                spatial.0 += 1;
                let lmi_hit = report
                    .mechanisms
                    .iter()
                    .any(|m| m.mechanism == MechanismKind::Lmi && m.detected);
                if lmi_hit {
                    spatial.1 += 1;
                }
            }
            if class == DefectClass::IntToPtrEscape {
                assert!(
                    report.compile_rejected,
                    "case {case}: cast mutant must die in the compiler"
                );
            }
        }
    }
    assert_eq!(spatial.0, spatial.1, "LMI must detect every injected spatial defect");
}

/// Divergence-specific regression: a defect placed in each divergent arm
/// (and after reconvergence) is still caught — detection does not depend
/// on which half-warp executes the access.
#[test]
fn divergent_arm_placement_does_not_mask_detection() {
    let mut rng = SplitMix64::new(SEED_BASE + 999);
    let cfg = OracleConfig::quick();
    let mut divergent_hits = 0;
    for case in 0..40 {
        let safe = generate(SEED_BASE + 200 + case);
        if !safe.divergent {
            continue;
        }
        for class in [DefectClass::SpatialNear, DefectClass::SpatialFar] {
            let (mutant, defect) = mutate(&safe, class, &mut rng);
            divergent_hits += 1;
            run_case(&mutant, Some(&defect), &cfg)
                .unwrap_or_else(|f| panic!("case {case} arm {}: {f}", mutant.ops[defect.op].arm));
        }
        if divergent_hits >= 10 {
            break;
        }
    }
    assert!(divergent_hits >= 6, "sample produced too few divergent mutants");
}

#[test]
fn uaf_nullification_poisons_the_dangling_pointer() {
    let mut rng = SplitMix64::new(0xFEED);
    for seed in 0..12 {
        let (mutant, defect) = mutate(&generate(seed), DefectClass::Uaf, &mut rng);
        let func = build(&mutant, Some(&defect));
        let stats = lmi_run(&func, &mutant.globals, POINT).expect("uaf mutant compiles");
        assert!(stats.violated(), "seed {seed}: dangling access undetected");
        // The nullified extent makes the dangling pointer invalid — the
        // fault is a dead-pointer dereference, never a spatial escape.
        let v = &stats.violations[0].violation;
        assert!(
            matches!(v, Violation::InvalidPointer { .. } | Violation::Temporal(_)),
            "seed {seed}: UAF classified as {v:?}"
        );
        // §VIII forensics: poison attributed to the FREE site, fault
        // strictly later.
        let rec = stats
            .forensics
            .first()
            .unwrap_or_else(|| panic!("seed {seed}: no forensic record for the UAF fault"));
        assert_eq!(rec.poison.op, "FREE", "seed {seed}: poison not attributed to the free");
        assert!(rec.latency_cycles() > 0, "seed {seed}: poison-to-fault latency must be positive");
    }
}

#[test]
fn double_free_is_validated_by_the_allocator() {
    let mut rng = SplitMix64::new(0xF00D);
    for seed in 0..12 {
        let (mutant, defect) = mutate(&generate(seed), DefectClass::DoubleFree, &mut rng);
        let func = build(&mutant, Some(&defect));
        let stats = lmi_run(&func, &mutant.globals, POINT).expect("double-free mutant compiles");
        assert!(stats.violated(), "seed {seed}: double free undetected");
        assert!(
            stats
                .violations
                .iter()
                .any(|e| e.violation == Violation::Temporal(TemporalKind::DoubleFree)),
            "seed {seed}: double free classified as {:?}",
            stats.violations[0].violation
        );
    }
}

/// Temporal classes through the full differential matrix: every mechanism
/// flags the allocator-validated double free, while only LMI's extent
/// nullification catches the dangling dereference.
#[test]
fn temporal_classes_hold_across_the_matrix() {
    let cfg = OracleConfig::quick();
    let mut rng = SplitMix64::new(0xBEEF);
    for seed in 40..46 {
        let safe = generate(seed);
        for class in [DefectClass::Uaf, DefectClass::DoubleFree] {
            let (mutant, defect) = mutate(&safe, class, &mut rng);
            run_case(&mutant, Some(&defect), &cfg)
                .unwrap_or_else(|f| panic!("seed {seed} {}: {f}", class.label()));
        }
    }
}

/// Pinned-seed shrinker regression: the known-failing spatial mutant of
/// seed 7 reduces to a minimal reproducer — bounded op count, identical
/// output at every engine thread count, and a paste-ready test.
#[test]
fn shrinker_is_bounded_and_engine_deterministic() {
    const SEED: u64 = 7;
    const MAX_IR_OPS: usize = 12;
    let mut rng = SplitMix64::new(0x5EED);
    let (mutant, defect) = mutate(&generate(SEED), DefectClass::SpatialNear, &mut rng);

    let mut reps = [1usize, 2, 8].map(|sim_threads| {
        let point = EnginePoint { sim_threads, mem_banks: 1 };
        shrink(&mutant, &defect, point)
    });
    let reference = reps[0].clone();
    assert!(
        reference.op_count <= MAX_IR_OPS,
        "seed {SEED} shrank to {} IR ops (> {MAX_IR_OPS})",
        reference.op_count
    );
    for rep in &mut reps[1..] {
        assert_eq!(rep.recipe, reference.recipe, "shrunk recipe differs across sim_threads");
        assert_eq!(rep.defect, reference.defect, "remapped defect differs across sim_threads");
        assert_eq!(rep.function, reference.function, "shrunk IR differs across sim_threads");
        assert_eq!(rep.op_count, reference.op_count);
        assert_eq!(rep.to_test_source(), reference.to_test_source());
    }

    // The rendered reproducer carries the pinned seed and class.
    let src = reference.to_test_source();
    assert!(src.contains("seed 7"), "reproducer must name its seed");
    assert!(src.contains("spatial-near"), "reproducer must name its class");
    assert!(src.contains("#[test]"), "reproducer must be a paste-ready test");

    // And the minimized case still fails for the original reason.
    let stats = lmi_run(&reference.function, &reference.recipe.globals, POINT)
        .expect("shrunk reproducer compiles");
    assert!(stats.violated(), "shrunk reproducer lost the failure");
}
