//! `fuzz-oracle`: conformance cases through the differential oracle.
//!
//! Op `i` belongs to recipe `i / 6`: the first op of a recipe generates the
//! safe case with `generate(seed + recipe)`, the next five each `mutate` it
//! with one `ALL_CLASSES` entry. Every op then runs `run_case` on
//! `OracleConfig::quick()` (5 mechanisms × engine points {1×1, 2×4}); an
//! `Err` is a failed op.

use lmi_bench::alloc_audit::CountingAlloc;
use lmi_compiler::{compile, CompileOptions};
use lmi_conformance::{
    build, generate, lmi_run, mutate, run_case, Defect, EnginePoint, OracleConfig, Recipe,
    ALL_CLASSES,
};
use lmi_telemetry::{Json, SplitMix64};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{Op, Workload};

/// Ops per recipe: the safe case, then one mutant per defect class.
const ROUND: usize = 1 + ALL_CLASSES.len();

/// Traced ops between two timed build probes.
const BUILD_PROBE_EVERY: u64 = 4;

/// The conformance-case workload.
pub struct Oracle {
    seed: u64,
    cfg: OracleConfig,
    safe: Option<Recipe>,
    case: Option<(Recipe, Option<Defect>)>,
    allocs_per_case: Vec<f64>,
}

impl Oracle {
    /// The oracle at its quick matrix.
    pub fn new(seed: u64) -> Oracle {
        Oracle {
            seed,
            cfg: OracleConfig::quick(),
            safe: None,
            case: None,
            allocs_per_case: Vec::new(),
        }
    }

    fn mutant_rng(&self, recipe: u64, pos: usize) -> SplitMix64 {
        SplitMix64::new(self.seed.wrapping_add(recipe) ^ ((pos as u64) << 56) ^ 0xF022_C0DE)
    }
}

impl Workload for Oracle {
    fn cells(&self) -> Vec<String> {
        std::iter::once("safe".to_string())
            .chain(ALL_CLASSES.iter().map(|c| c.label().to_string()))
            .collect()
    }

    fn run_op(&mut self, index: u64, tr: &mut Tracer) -> Op {
        let (recipe_no, pos) = (index / ROUND as u64, (index % ROUND as u64) as usize);
        let (recipe, defect) = if pos == 0 {
            let recipe =
                tr.span("fuzz.generate", index, |_| generate(self.seed.wrapping_add(recipe_no)));
            self.safe = Some(recipe.clone());
            (recipe, None)
        } else {
            let mut rng = self.mutant_rng(recipe_no, pos);
            let safe = self.safe.as_ref().expect("ops run in order: the safe case comes first");
            let (recipe, defect) =
                tr.span("fuzz.mutate", index, |_| mutate(safe, ALL_CLASSES[pos - 1], &mut rng));
            (recipe, Some(defect))
        };
        let allocs0 = CountingAlloc::allocations();
        let verdict =
            tr.span("fuzz.oracle", index, |_| run_case(&recipe, defect.as_ref(), &self.cfg));
        if tr.enabled() {
            self.allocs_per_case.push((CountingAlloc::allocations() - allocs0) as f64);
        }
        if let Err(e) = &verdict {
            eprintln!("fuzz case {index} (recipe seed {}): {e}", recipe.seed);
        }
        self.case = Some((recipe, defect));
        Op { cell: pos, ok: verdict.is_ok(), issued: 0 }
    }

    /// Credits the op with the warp-instructions of its LMI build at one
    /// engine point (the oracle reports no statistics), and on traced runs
    /// times kernel construction and compilation every few ops.
    fn after_op(&mut self, index: u64, tr: &mut Tracer) -> u64 {
        let Some((recipe, defect)) = &self.case else { return 0 };
        if tr.enabled() && index.is_multiple_of(BUILD_PROBE_EVERY) {
            tr.span("fuzz.build", index, |_| {
                let func = build(recipe, defect.as_ref());
                let built = (
                    compile(&func, CompileOptions::baseline()),
                    compile(&func, CompileOptions::default()),
                );
                std::hint::black_box(&built);
            });
        }
        let point = EnginePoint { sim_threads: 1, mem_banks: 1 };
        let func = build(recipe, defect.as_ref());
        lmi_run(&func, &recipe.globals, point).map_or(0, |s| s.issued)
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let us = |name: &str| median(&tr.durations_ms(name)) * 1e3;
        vec![
            ("fuzz.generate_us", us("fuzz.generate")),
            ("fuzz.mutate_us", us("fuzz.mutate")),
            ("fuzz.build_us", us("fuzz.build")),
            ("fuzz.oracle_ms", median(&tr.durations_ms("fuzz.oracle"))),
            ("fuzz.allocs_per_case", median(&self.allocs_per_case)),
        ]
    }

    fn config(&self) -> Json {
        let points = self
            .cfg
            .points
            .iter()
            .map(|p| Json::obj().with("sim_threads", p.sim_threads).with("mem_banks", p.mem_banks))
            .collect();
        Json::obj()
            .with("gpu", "small")
            .with("mechanisms", self.cfg.mechanisms.len())
            .with("points", Json::Arr(points))
    }
}
