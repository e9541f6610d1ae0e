//! The differential oracle matrix.
//!
//! Each case (a recipe, optionally carrying one injected defect) is run
//! across protection mechanisms × engine configurations
//! (`sim_threads` × `mem_banks`) and checked against three invariants:
//!
//! * **Transparency** — on safe cases no mechanism fires and every
//!   mechanism produces bit-identical global-buffer contents.
//! * **Detection by class** — each mechanism detects exactly the defect
//!   classes its design covers (LMI all of them; the baselines their
//!   documented subsets).
//! * **Engine determinism** — per mechanism, statistics and post-run
//!   memory are bit-identical at every engine configuration.
//!
//! What a column runs — its heap policy, LMI or baseline build with or
//! without extent-encoded parameters, program rewrite, mechanism instance
//! and canary scan — comes from the [`MechanismKind`] registry of
//! `lmi-baselines`, re-exported here.

use lmi_alloc::AlignmentPolicy;
pub use lmi_baselines::MechanismKind;
use lmi_compiler::ir::Function;
use lmi_compiler::{compile, CompileError, CompileOptions};
use lmi_core::{DevicePtr, PtrConfig, TemporalKind, Violation};
use lmi_isa::Program;
use lmi_mem::layout;
use lmi_sim::{Gpu, GpuConfig, Launch, MemorySnapshot, SimStats};
use lmi_telemetry::SplitMix64;

use crate::defect::{Defect, DefectClass};
use crate::recipe::{build, BufSpec, Loc, Recipe, THREADS};

/// Spacing between global buffers: leaves canary headroom and a large
/// unregistered gap that near- and far-OOB accesses land in.
const BUFFER_STRIDE: u64 = 0x10_0000;

/// Heap window captured for the engine-determinism comparison (covers
/// every allocation 32 threads can make in one case).
const HEAP_WINDOW: u64 = 0x1_0000;

/// The oracle's mechanism columns, in the matrix' stable order (the DBI
/// tools are perf baselines only).
pub const ALL_MECHANISMS: [MechanismKind; 5] = [
    MechanismKind::Null,
    MechanismKind::Lmi,
    MechanismKind::GpuShield,
    MechanismKind::Baggy,
    MechanismKind::Canary,
];

/// One engine configuration of the determinism matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnginePoint {
    /// Worker threads for the parallel engine.
    pub sim_threads: usize,
    /// Address-interleaved memory banks.
    pub mem_banks: usize,
}

/// The issue-mandated engine matrix: `sim_threads` {1,2} × `mem_banks`
/// {1,4}.
pub fn full_points() -> Vec<EnginePoint> {
    vec![
        EnginePoint { sim_threads: 1, mem_banks: 1 },
        EnginePoint { sim_threads: 2, mem_banks: 1 },
        EnginePoint { sim_threads: 1, mem_banks: 4 },
        EnginePoint { sim_threads: 2, mem_banks: 4 },
    ]
}

/// Oracle configuration: which mechanisms and engine points to run, and an
/// optional *masked* defect class (a test hook: LMI detections of the
/// masked class are treated as unexpected, manufacturing the failing cases
/// the shrinker minimizes).
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Mechanism columns of the matrix.
    pub mechanisms: Vec<MechanismKind>,
    /// Engine points (the first is the determinism reference).
    pub points: Vec<EnginePoint>,
    /// Treat LMI detections of this class as failures (shrinker fodder).
    pub masked: Option<DefectClass>,
}

impl OracleConfig {
    /// The full mechanism × engine matrix.
    pub fn full() -> OracleConfig {
        OracleConfig { mechanisms: ALL_MECHANISMS.to_vec(), points: full_points(), masked: None }
    }

    /// A budget-friendly matrix for debug-mode tests: all mechanisms, two
    /// engine points spanning both axes.
    pub fn quick() -> OracleConfig {
        OracleConfig {
            mechanisms: ALL_MECHANISMS.to_vec(),
            points: vec![
                EnginePoint { sim_threads: 1, mem_banks: 1 },
                EnginePoint { sim_threads: 2, mem_banks: 4 },
            ],
            masked: None,
        }
    }
}

/// What the oracle expects of one mechanism on one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The mechanism must fire.
    Detect,
    /// The mechanism must stay silent.
    Miss,
}

/// The documented coverage matrix: which mechanism must catch which defect
/// (paper Table III distilled to the generator's classes).
pub fn expectation(kind: MechanismKind, defect: Option<&Defect>, recipe: &Recipe) -> Expect {
    let Some(d) = defect else {
        // Safe-by-construction case: any detection is a false positive.
        return Expect::Miss;
    };
    match d.class {
        // The device-runtime allocator validates frees under every
        // mechanism (§IX-B).
        DefectClass::DoubleFree => Expect::Detect,
        // Only LMI's extent nullification poisons the dangling pointer;
        // GPUShield's coarse heap region and the canaries miss it.
        DefectClass::Uaf => {
            if kind == MechanismKind::Lmi {
                Expect::Detect
            } else {
                Expect::Miss
            }
        }
        DefectClass::SpatialNear | DefectClass::SpatialFar => {
            let op = &recipe.ops[d.op];
            match kind {
                MechanismKind::Lmi => Expect::Detect,
                // The software rewrites only cost cycles here.
                MechanismKind::Null
                | MechanismKind::Baggy
                | MechanismKind::LmiDbi
                | MechanismKind::Memcheck => Expect::Miss,
                // Region bounds tables catch escapes from registered
                // global buffers; shared is unprotected and heap/local are
                // single coarse regions.
                MechanismKind::GpuShield => {
                    if matches!(op.loc, Loc::Global(_)) {
                        Expect::Detect
                    } else {
                        Expect::Miss
                    }
                }
                // Canaries see adjacent *stores* to guarded global
                // buffers. An else-arm mutant's lowest lane starts 64 B
                // past the end — exactly past the guard — so only mutants
                // whose lane 0..15 executes can trip it.
                MechanismKind::Canary => {
                    let adjacent_store = matches!(op.loc, Loc::Global(_))
                        && d.class == DefectClass::SpatialNear
                        && op.store
                        && !(recipe.divergent && op.arm == 1);
                    if adjacent_store {
                        Expect::Detect
                    } else {
                        Expect::Miss
                    }
                }
            }
        }
        // Rejected at compile time; run_case never reaches the matrix.
        DefectClass::IntToPtrEscape => Expect::Miss,
    }
}

/// Per-mechanism observation of one case.
#[derive(Debug, Clone)]
pub struct MechanismReport {
    /// Which mechanism.
    pub mechanism: MechanismKind,
    /// `true` if it fired (a recorded violation or a damaged canary).
    pub detected: bool,
    /// Poison→fault forensic records attributed during the run.
    pub forensics: usize,
    /// Mnemonic of the poisoning instruction of the first forensic record.
    pub poison_op: Option<&'static str>,
    /// Poison-to-fault latency in cycles of the first forensic record.
    pub poison_latency: Option<u64>,
}

/// The oracle's verdict on one case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// `true` when the defect was rejected at compile time (the
    /// `inttoptr` class) — the matrix never ran.
    pub compile_rejected: bool,
    /// Per-mechanism observations (empty when `compile_rejected`).
    pub mechanisms: Vec<MechanismReport>,
}

/// A failed oracle invariant, with enough context to report and shrink.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// The mechanism the invariant failed on, if attributable.
    pub mechanism: Option<MechanismKind>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.mechanism {
            Some(m) => write!(f, "[{}] {}", m.label(), self.message),
            None => f.write_str(&self.message),
        }
    }
}

/// Base addresses of the case's global buffers.
pub fn global_bases(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| layout::GLOBAL_BASE + (i + 1) * BUFFER_STRIDE).collect()
}

/// The deterministic input image: every global buffer filled from the
/// recipe's seed. Built once per case and restored into each fresh GPU, so
/// every mechanism and engine point starts from identical memory.
pub fn seed_image(recipe: &Recipe) -> MemorySnapshot {
    let bases = global_bases(recipe.globals.len());
    let mut rng = SplitMix64::new(recipe.seed ^ 0x5EED_1A6E);
    let regions = recipe
        .globals
        .iter()
        .zip(&bases)
        .map(|(buf, &base)| {
            let mut bytes = vec![0u8; buf.elems as usize * 4];
            for chunk in bytes.chunks_mut(8) {
                let v = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&v[..chunk.len()]);
            }
            (base, bytes)
        })
        .collect();
    MemorySnapshot { regions }
}

struct RunResult {
    stats: SimStats,
    /// Global buffers + heap window (engine-determinism comparison).
    full_image: MemorySnapshot,
    /// Global buffers only (cross-mechanism transparency comparison; heap
    /// layouts legitimately differ between alignment policies).
    global_image: MemorySnapshot,
    canary_hit: bool,
}

/// `(base, size)` of each global buffer.
fn global_buffers(globals: &[BufSpec]) -> Vec<(u64, u64)> {
    let bases = global_bases(globals.len());
    globals.iter().zip(bases).map(|(buf, base)| (base, u64::from(buf.elems) * 4)).collect()
}

/// The case's launch of `program` under `kind`: one parameter per global
/// buffer, extent-encoded when the kind runs the LMI build.
fn launch(kind: MechanismKind, program: Program, buffers: &[(u64, u64)]) -> Launch {
    let encode = kind.policy() == AlignmentPolicy::PowerOfTwo;
    let ptr_cfg = PtrConfig::default();
    let mut launch = Launch::new(program).grid(1).block(THREADS as usize);
    for &(base, size) in buffers {
        let raw = if encode {
            DevicePtr::encode(base, size, &ptr_cfg)
                .expect("aligned power-of-two buffer encodes")
                .raw()
        } else {
            base
        };
        launch = launch.param(raw);
    }
    launch
}

/// The small GPU at `point`, halting on the first violation.
fn engine_config(point: EnginePoint) -> GpuConfig {
    let mut cfg =
        GpuConfig::small().with_sim_threads(point.sim_threads).with_mem_banks(point.mem_banks);
    cfg.halt_on_violation = true;
    cfg
}

fn run_one(
    kind: MechanismKind,
    point: EnginePoint,
    launch: &Launch,
    buffers: &[(u64, u64)],
    image: &MemorySnapshot,
) -> RunResult {
    let mut gpu = Gpu::with_heap_policy(engine_config(point), kind.policy());
    gpu.restore(image);
    let canaries = kind.guard(&mut gpu.memory, buffers);
    let stats = gpu.run(launch, kind.instance(buffers).as_mut());

    let mut full_ranges = buffers.to_vec();
    full_ranges.push((layout::HEAP_BASE, HEAP_WINDOW));
    RunResult {
        full_image: gpu.snapshot(&full_ranges),
        global_image: gpu.snapshot(buffers),
        stats,
        canary_hit: !canaries.scan(&gpu.memory).is_empty(),
    }
}

/// Runs one case through the whole oracle matrix.
///
/// Returns the per-mechanism report, or the first violated invariant as a
/// [`CaseFailure`] (the shrinker's input).
pub fn run_case(
    recipe: &Recipe,
    defect: Option<&Defect>,
    cfg: &OracleConfig,
) -> Result<CaseReport, CaseFailure> {
    if defect.is_none() {
        recipe.assert_safe();
    }
    let func = build(recipe, defect);

    // The §XII-B cast class must die in the compiler — under *both* build
    // modes — before any simulation happens.
    if defect.map(|d| d.class) == Some(DefectClass::IntToPtrEscape) {
        for options in [CompileOptions::baseline(), CompileOptions::default()] {
            match compile(&func, options) {
                Err(CompileError::IntToPtrForbidden { .. }) => {}
                Err(e) => {
                    return Err(CaseFailure {
                        mechanism: None,
                        message: format!("inttoptr mutant rejected with the wrong error: {e}"),
                    })
                }
                Ok(_) => {
                    return Err(CaseFailure {
                        mechanism: None,
                        message: "inttoptr mutant was accepted by the compiler".into(),
                    })
                }
            }
        }
        return Ok(CaseReport { compile_rejected: true, mechanisms: Vec::new() });
    }

    let fail =
        |mechanism: Option<MechanismKind>, message: String| CaseFailure { mechanism, message };
    let base_bin = compile(&func, CompileOptions::baseline())
        .map_err(|e| fail(None, format!("baseline compile failed: {e}")))?;
    let lmi_bin = compile(&func, CompileOptions::default())
        .map_err(|e| fail(None, format!("lmi compile failed: {e}")))?;
    let buffers = global_buffers(&recipe.globals);
    let image = seed_image(recipe);

    let mut reports = Vec::new();
    let mut safe_reference: Option<(MechanismKind, MemorySnapshot)> = None;
    for &kind in &cfg.mechanisms {
        // Built (and rewritten) once per kind, outside the engine points.
        let build = if kind.policy() == AlignmentPolicy::PowerOfTwo {
            &lmi_bin.program
        } else {
            &base_bin.program
        };
        let program = kind.rewrite(build).unwrap_or_else(|| build.clone());
        let launch = launch(kind, program, &buffers);
        let mut reference: Option<RunResult> = None;
        for &point in &cfg.points {
            let run = run_one(kind, point, &launch, &buffers, &image);
            match &reference {
                None => reference = Some(run),
                Some(r) => {
                    if r.stats != run.stats {
                        return Err(fail(
                            Some(kind),
                            format!(
                                "engine statistics diverge at sim_threads={} mem_banks={}",
                                point.sim_threads, point.mem_banks
                            ),
                        ));
                    }
                    if r.full_image != run.full_image || r.canary_hit != run.canary_hit {
                        return Err(fail(
                            Some(kind),
                            format!(
                                "post-run memory diverges at sim_threads={} mem_banks={}",
                                point.sim_threads, point.mem_banks
                            ),
                        ));
                    }
                }
            }
        }
        let run = reference.expect("at least one engine point");
        let detected = run.stats.violated() || run.canary_hit;

        let mut expect = expectation(kind, defect, recipe);
        let masked =
            kind == MechanismKind::Lmi && defect.is_some() && cfg.masked == defect.map(|d| d.class);
        if masked {
            expect = Expect::Miss;
        }
        match expect {
            Expect::Detect if !detected => {
                return Err(fail(
                    Some(kind),
                    format!(
                        "missed a {} defect",
                        defect.expect("detect implies defect").class.label()
                    ),
                ));
            }
            Expect::Miss if detected => {
                let what = match defect {
                    None => "false positive on a safe-by-construction case".to_string(),
                    Some(d) => format!("unexpected detection of a {} defect", d.class.label()),
                };
                return Err(fail(Some(kind), what));
            }
            _ => {}
        }

        // Class-specific semantic checks on top of the detect/miss bit.
        if let Some(d) = defect {
            if detected && d.class == DefectClass::DoubleFree && run.stats.violated() {
                let ok = run
                    .stats
                    .violations
                    .iter()
                    .any(|v| v.violation == Violation::Temporal(TemporalKind::DoubleFree));
                if !ok {
                    return Err(fail(
                        Some(kind),
                        format!(
                            "double free classified as {:?}",
                            run.stats.violations[0].violation
                        ),
                    ));
                }
            }
            if kind == MechanismKind::Lmi && d.class == DefectClass::Uaf && !masked {
                // §VIII forensics: the extent nullification at the free is
                // the recorded poison, and the dangling dereference is the
                // matched fault with a positive latency.
                let rec = run.stats.forensics.first().ok_or_else(|| {
                    fail(Some(kind), "use-after-free fault carries no forensic record".into())
                })?;
                if rec.poison.op != "FREE" {
                    return Err(fail(
                        Some(kind),
                        format!("UAF poison attributed to {} instead of FREE", rec.poison.op),
                    ));
                }
                if rec.latency_cycles() == 0 {
                    return Err(fail(Some(kind), "poison-to-fault latency is zero".into()));
                }
            }
        }

        // Transparency: on safe cases every mechanism must leave identical
        // global-buffer contents.
        if defect.is_none() {
            match &safe_reference {
                None => safe_reference = Some((kind, run.global_image.clone())),
                Some((ref_kind, ref_image)) => {
                    if *ref_image != run.global_image {
                        return Err(fail(
                            Some(kind),
                            format!(
                                "global buffers diverge from the {} run on a safe case",
                                ref_kind.label()
                            ),
                        ));
                    }
                }
            }
        }

        let first = run.stats.forensics.first();
        reports.push(MechanismReport {
            mechanism: kind,
            detected,
            forensics: run.stats.forensics.len(),
            poison_op: first.map(|r| r.poison.op),
            poison_latency: first.map(|r| r.latency_cycles()),
        });
    }
    Ok(CaseReport { compile_rejected: false, mechanisms: reports })
}

/// Compiles `func` as an LMI build and runs it under the LMI mechanism at
/// one engine point — the shrinker's cheap "does it still fail?" probe.
pub fn lmi_run(
    func: &Function,
    globals: &[BufSpec],
    point: EnginePoint,
) -> Result<SimStats, CompileError> {
    let bin = compile(func, CompileOptions::default())?;
    let buffers = global_buffers(globals);
    let launch = launch(MechanismKind::Lmi, bin.program, &buffers);
    let mut gpu = Gpu::new(engine_config(point));
    Ok(gpu.run(&launch, MechanismKind::Lmi.instance(&buffers).as_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::{mutate, ALL_CLASSES};
    use crate::recipe::generate;
    use lmi_telemetry::SplitMix64;

    #[test]
    fn matrix_holds_on_a_few_cases() {
        let cfg = OracleConfig::quick();
        let mut rng = SplitMix64::new(1);
        for seed in 0..4 {
            let safe = generate(seed);
            let report =
                run_case(&safe, None, &cfg).unwrap_or_else(|f| panic!("seed {seed} safe: {f}"));
            assert!(report.mechanisms.iter().all(|m| !m.detected));
            for class in ALL_CLASSES {
                let (mutant, defect) = mutate(&safe, class, &mut rng);
                run_case(&mutant, Some(&defect), &cfg)
                    .unwrap_or_else(|f| panic!("seed {seed} {}: {f}", class.label()));
            }
        }
    }

    #[test]
    fn masking_turns_detection_into_failure() {
        let mut cfg = OracleConfig::quick();
        cfg.masked = Some(DefectClass::SpatialNear);
        let mut rng = SplitMix64::new(2);
        let (mutant, defect) = mutate(&generate(0), DefectClass::SpatialNear, &mut rng);
        let failure = run_case(&mutant, Some(&defect), &cfg)
            .expect_err("masked LMI detection must surface as a failure");
        assert_eq!(failure.mechanism, Some(MechanismKind::Lmi));
    }
}
