//! Shared experiment plumbing for the paper-reproduction harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index); this library hosts the pieces
//! they share: scenario extraction at the paper's resolution or a faster
//! preview resolution, and output-directory handling.

use pv_floorplan::{
    greedy_placement_with_map, traditional_placement_with_map, ComparisonRow, EnergyEvaluator,
    FloorplanConfig, FloorplanResult, SuitabilityMap, TraceMemo,
};
use pv_geom::CellCoord;
use pv_gis::{lanes, IrradianceGroup, RoofScenario, Site, SolarDataset, SolarExtractor};
use pv_model::{ModuleModel, Topology};
use pv_runtime::Runtime;
use pv_units::{Irradiance, SimulationClock};
use std::path::PathBuf;
use std::time::Instant;

/// Shared offline JSON reader/writer — a re-export of [`pv_json`], the
/// extracted home of what used to be the private `pv_bench::json` module
/// (the placement server is the second consumer).
pub use pv_json as json;

pub mod cli;
pub mod portfolio;

use cli::Flag;

/// The weather seed shared by all experiments (all three roofs are
/// neighbours and see the same weather, as in the paper).
pub const WEATHER_SEED: u64 = 2018;

/// Resolution of a harness run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// The paper's configuration: one year at 15-minute steps.
    Paper,
    /// One year at hourly steps — ~4x faster, same spatial structure.
    Fast,
    /// 30 days at hourly steps — smoke-test scale.
    Smoke,
}

impl Resolution {
    /// The simulation clock for this resolution.
    #[must_use]
    pub fn clock(self) -> SimulationClock {
        match self {
            Self::Paper => SimulationClock::paper(),
            Self::Fast => SimulationClock::year_at_minutes(60),
            Self::Smoke => SimulationClock::days_at_minutes(30, 60),
        }
    }

    /// Human-readable label for report headers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Paper => "1 year @ 15 min (paper)",
            Self::Fast => "1 year @ 60 min (fast)",
            Self::Smoke => "30 days @ 60 min (smoke)",
        }
    }
}

/// Parsed form of the shared harness CLI
/// (`[--paper|--fast|--smoke] [--threads N]` plus bin-specific boolean
/// flags). Built by [`parse_harness_args`]; pure data so bins can
/// unit-test their argument handling without spawning a process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Explicit resolution flag, if any (bins pick their own default).
    pub resolution: Option<Resolution>,
    /// Explicit `--threads N`, if any.
    pub threads: Option<usize>,
    /// Bin-specific boolean flags that were present, verbatim.
    pub extra: Vec<String>,
}

impl HarnessArgs {
    /// The runtime this invocation pinned: `--threads N` when given,
    /// otherwise [`Runtime::from_env`].
    #[must_use]
    pub fn runtime(&self) -> Runtime {
        self.threads
            .map_or_else(Runtime::from_env, Runtime::with_threads)
    }

    /// The resolution, falling back to the bin's default.
    #[must_use]
    pub fn resolution_or(&self, default: Resolution) -> Resolution {
        self.resolution.unwrap_or(default)
    }

    /// Whether a bin-specific flag (from `extra_flags`) was passed.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.extra.iter().any(|present| present == flag)
    }
}

/// The flags every harness bin takes.
const HARNESS_FLAGS: &[Flag] = &[
    Flag::switch("--paper"),
    Flag::switch("--fast"),
    Flag::switch("--smoke"),
    Flag::value("--threads"),
];

/// The harness bins' shared CLI on the [`cli`] flag table. `extra_flags`
/// lists the bin's own boolean flags (e.g. `--timings`). The last
/// resolution flag wins; `--help` answers with the flag list as an error,
/// since the bins' usage lives in their module docs.
///
/// # Errors
///
/// A message naming the offending flag or `--threads` value.
pub fn parse_harness_args(
    args: &[String],
    extra_flags: &[&'static str],
) -> Result<HarnessArgs, String> {
    let extra: Vec<Flag> = extra_flags.iter().map(|&name| Flag::switch(name)).collect();
    let tables = [HARNESS_FLAGS, &extra];
    let m = cli::parse("", &tables, args)?;
    if m.help {
        return Err(cli::usage(&tables));
    }
    Ok(HarnessArgs {
        resolution: m
            .names()
            .filter_map(|flag| match flag {
                "--paper" => Some(Resolution::Paper),
                "--fast" => Some(Resolution::Fast),
                "--smoke" => Some(Resolution::Smoke),
                _ => None,
            })
            .last(),
        threads: m.parse("--threads", "a positive integer", pv_runtime::parse_threads)?,
        extra: extra_flags
            .iter()
            .filter(|&&name| m.has(name))
            .map(ToString::to_string)
            .collect(),
    })
}

/// Extracts the solar dataset of a paper roof at the given resolution on
/// `runtime` (the `--threads` path).
#[must_use]
pub fn extract_scenario_with(
    scenario: &RoofScenario,
    resolution: Resolution,
    runtime: Runtime,
) -> SolarDataset {
    SolarExtractor::new(Site::turin(), resolution.clock())
        .seed(WEATHER_SEED)
        .runtime(runtime)
        .extract(&scenario.dsm)
}

/// The paper's configuration for `n_modules` modules in 8-series strings.
///
/// # Panics
///
/// Panics unless `n_modules` is a positive multiple of 8.
#[must_use]
pub fn paper_config(n_modules: usize) -> FloorplanConfig {
    let topology = Topology::new(8, n_modules / 8).expect("paper topologies are 8-series");
    FloorplanConfig::paper(topology).expect("paper module aligns to 20 cm grid")
}

/// Runs the traditional-vs-proposed comparison of one roof for one module
/// count on `runtime` (the `--threads` path), producing a Table I row.
///
/// # Panics
///
/// Panics when a placement fails on a paper roof (cannot happen for the
/// published `N`; the roofs have ample space).
#[must_use]
pub fn compare_row_with(
    scenario: &RoofScenario,
    dataset: &SolarDataset,
    n_modules: usize,
    runtime: Runtime,
) -> ComparisonRow {
    let map = SuitabilityMap::compute_with(dataset, &paper_config(n_modules), runtime);
    compare_row_with_map(scenario, dataset, n_modules, &map, runtime)
}

/// [`compare_row_with`] on a precomputed suitability map. The map does
/// not depend on the topology, so one map serves every `N` of a roof.
///
/// # Panics
///
/// Panics when a placement fails on a paper roof (cannot happen for the
/// published `N`; the roofs have ample space).
#[must_use]
pub fn compare_row_with_map(
    scenario: &RoofScenario,
    dataset: &SolarDataset,
    n_modules: usize,
    map: &SuitabilityMap,
    runtime: Runtime,
) -> ComparisonRow {
    let config = paper_config(n_modules);
    let traditional = traditional_placement_with_map(dataset, &config, map)
        .expect("compact block fits the paper roofs");
    let proposed =
        greedy_placement_with_map(dataset, &config, map).expect("greedy fits the paper roofs");
    let evaluator = EnergyEvaluator::new(&config).with_runtime(runtime);
    let trad_report = evaluator
        .evaluate(dataset, &traditional)
        .expect("sized by construction");
    let prop_report = evaluator
        .evaluate(dataset, &proposed)
        .expect("sized by construction");

    ComparisonRow {
        label: scenario.name(),
        dims: (dataset.dims().width(), dataset.dims().height()),
        ng: dataset.valid().count(),
        n_modules,
        traditional: trad_report.energy,
        proposed: prop_report.energy,
        published_gain_percent: scenario.roof.published_gain_percent(n_modules),
    }
}

/// One machine-readable benchmark measurement for `BENCH_evaluator.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Name of the specific rung (e.g. `proposal_incremental`).
    pub name: String,
    /// Human-readable workload scale (clock resolution, module count).
    pub scale: String,
    /// Mean wall-clock time per evaluation, nanoseconds.
    pub ns_per_eval: f64,
    /// Speedup relative to the cold-evaluate rung of the same run
    /// (`1.0` for the cold rung itself).
    pub speedup_vs_cold: f64,
}

/// Default path of the evaluator benchmark artifact, relative to the
/// working directory (run from the repo root, it lands there).
pub const EVALUATOR_JSON: &str = "BENCH_evaluator.json";

/// Default path of the server load-test artifact written by the `loadgen`
/// bin, relative to the working directory.
pub const SERVER_JSON: &str = "BENCH_server.json";

/// Writes [`EVALUATOR_JSON`], the benchmark artifact consumed by the CI
/// schema check and the EXPERIMENTS.md perf trajectory: a JSON array of
/// objects with keys `bench`, `scale`, `name`, `ns_per_eval`,
/// `speedup_vs_cold`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_records(bench: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(EVALUATOR_JSON);
    std::fs::write(&path, render_bench_records(bench, records))?;
    Ok(path)
}

/// Renders the `BENCH_evaluator.json` document (see
/// [`write_bench_records`]) through the shared [`json`] writer.
///
/// Non-finite measurements are rendered verbatim (`NaN`/`inf`), which is
/// not valid JSON — deliberately, so a broken measurement makes the CI
/// schema check fail instead of being laundered into a plausible number.
#[must_use]
pub fn render_bench_records(bench: &str, records: &[BenchRecord]) -> String {
    let items: Vec<json::JsonValue> = records
        .iter()
        .map(|r| {
            json::ObjectBuilder::new()
                .field("bench", bench)
                .field("scale", r.scale.as_str())
                .field("name", r.name.as_str())
                .field("ns_per_eval", json::rounded(r.ns_per_eval, 1))
                .field("speedup_vs_cold", json::rounded(r.speedup_vs_cold, 3))
                .build()
        })
        .collect();
    json::render_record_array(&items)
}

/// Wall-clock results of [`proposal_loop_timings`].
#[derive(Clone, Copy, Debug)]
pub struct ProposalTimings {
    /// ns per proposal on the cold path (relocate + `evaluate_cold`, the
    /// pre-caching full re-integration).
    pub cold_ns_per_eval: f64,
    /// ns per proposal on the incremental path (`try_move` + cached
    /// re-score, per-anchor memo warm).
    pub incremental_ns_per_eval: f64,
}

impl ProposalTimings {
    /// Cold / incremental — the headline delta-evaluation speedup.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.cold_ns_per_eval / self.incremental_ns_per_eval.max(1e-9)
    }

    /// The two `BENCH_evaluator.json` records of this measurement, as
    /// written by `diag --timings`.
    #[must_use]
    pub fn to_records(&self, scale: &str) -> [BenchRecord; 2] {
        [
            BenchRecord {
                name: "proposal_cold".into(),
                scale: scale.to_string(),
                ns_per_eval: self.cold_ns_per_eval,
                speedup_vs_cold: 1.0,
            },
            BenchRecord {
                name: "proposal_incremental".into(),
                scale: scale.to_string(),
                ns_per_eval: self.incremental_ns_per_eval,
                speedup_vs_cold: self.speedup(),
            },
        ]
    }
}

/// The workload label of the proposal-loop probe (`BENCH_evaluator.json`
/// `scale` field): the smoke clock at the paper's heaviest topology.
#[must_use]
pub fn proposal_probe_scale() -> String {
    format!("{}, N=32", Resolution::Smoke.label())
}

/// One lane-vs-scalar timing of a kernel the SoA refactor rebuilt.
#[derive(Clone, Copy, Debug)]
pub struct KernelTiming {
    /// `BENCH_evaluator.json` record name (`kernel_…`).
    pub name: &'static str,
    /// ns per full pass of the lane-shaped kernel.
    pub lane_ns_per_eval: f64,
    /// ns per full pass of the scalar reference shape it replaced.
    pub scalar_ns_per_eval: f64,
}

impl KernelTiming {
    /// Scalar / lane — how much the lane shape buys at this workload.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.scalar_ns_per_eval / self.lane_ns_per_eval.max(1e-9)
    }
}

/// Lane-vs-scalar timings of the three hot loops the `pv_gis::lanes`
/// refactor rebuilt, produced by [`kernel_probe_timings`] and recorded
/// as `kernel_*` rows in `BENCH_evaluator.json` (the CI schema check
/// rejects any such row whose speedup drops below 1).
#[derive(Clone, Debug)]
pub struct KernelTimings {
    /// One entry per probed kernel, in presentation order.
    pub kernels: Vec<KernelTiming>,
}

impl KernelTimings {
    /// The `BENCH_evaluator.json` rows of this probe. `ns_per_eval` is
    /// the lane-path time; `speedup_vs_cold` is the lane speedup over
    /// the kernel's own scalar reference shape (its "cold" predecessor).
    #[must_use]
    pub fn to_records(&self, scale: &str) -> Vec<BenchRecord> {
        self.kernels
            .iter()
            .map(|k| BenchRecord {
                name: k.name.to_string(),
                scale: scale.to_string(),
                ns_per_eval: k.lane_ns_per_eval,
                speedup_vs_cold: k.speedup(),
            })
            .collect()
    }
}

/// Times the three rebuilt kernels against the scalar shapes they
/// replaced, on the given placement's real traces — single-threaded, so
/// the numbers isolate loop shape rather than parallelism:
///
/// 1. `kernel_irradiance_census` — the branch-free masked-popcount /
///    beam-lane mean-irradiance kernel vs the per-cell scalar
///    irradiance recomposition;
/// 2. `kernel_fused_iv` — the fused per-module means + the module's
///    chunked operating-point sweep (`EmpiricalModule::operating_points`)
///    vs the scalar per-(step, group) path it replaced (per-cell
///    recomposition + unit-typed per-step model);
/// 3. `kernel_string_agg` — member-outer elementwise `add_assign` /
///    `min_assign` folds vs the step-outer member-inner loop.
///
/// `budget` scales repetition counts (1 = single pass per batch, for
/// tests; larger values give steadier numbers).
///
/// # Panics
///
/// Panics when the plan does not match the config's topology.
#[must_use]
pub fn kernel_probe_timings(
    dataset: &SolarDataset,
    config: &FloorplanConfig,
    plan: &FloorplanResult,
    budget: usize,
) -> KernelTimings {
    let topology = config.topology();
    let n_modules = topology.num_modules();
    assert_eq!(plan.placement.len(), n_modules, "plan/topology mismatch");
    let num_steps = dataset.num_steps();
    let n = num_steps as usize;
    let module_cells: Vec<Vec<CellCoord>> = (0..n_modules)
        .map(|k| plan.placement.cells_of(k).collect())
        .collect();
    let groups: Vec<IrradianceGroup> = module_cells
        .iter()
        .map(|cells| dataset.irradiance_group(cells))
        .collect();
    let module = config.module();
    let ambient: Vec<f64> = (0..num_steps)
        .map(|i| dataset.conditions(i).ambient.as_celsius())
        .collect();
    let budget = budget.max(1);
    // Always at least three batches — the CI schema check gates on the
    // recorded speedups, so even a budget-1 pass must produce
    // noise-resistant numbers.
    let batches = 3;

    // Minimum over batches of `reps` passes — the standard microbench
    // noise floor: the fastest batch is the one least perturbed.
    let time = |reps: usize, body: &mut dyn FnMut()| -> f64 {
        body(); // warm-up
        let mut best = f64::INFINITY;
        for _ in 0..batches {
            let t0 = Instant::now();
            for _ in 0..reps {
                body();
            }
            best = best.min(t0.elapsed().as_secs_f64() / reps as f64 * 1e9);
        }
        best
    };

    // 1. Irradiance census, all modules × all steps (module-major).
    let mut means = vec![0.0f64; n * n_modules];
    let census_lane = time(budget, &mut || {
        for (group, block) in groups.iter().zip(means.chunks_exact_mut(n)) {
            dataset.mean_irradiance_group_into(group, 0..num_steps, block);
        }
        std::hint::black_box(&means);
    });
    let census_scalar = time(budget, &mut || {
        for i in 0..num_steps {
            let sun_up = dataset.conditions(i).sun_up;
            for (k, cells) in module_cells.iter().enumerate() {
                means[k * n + i as usize] = if sun_up {
                    cells
                        .iter()
                        .map(|&c| dataset.irradiance(c, i).as_w_per_m2())
                        .sum::<f64>()
                        / cells.len() as f64
                } else {
                    0.0
                };
            }
        }
        std::hint::black_box(&means);
    });

    // 2. Per-module trace refresh: fused means + the module's IV sweep vs the
    // scalar per-(step, group) path it replaced — per-cell irradiance
    // recomposition and the unit-typed per-step operating point.
    let mut volts = vec![vec![0.0f64; n]; n_modules];
    let mut amps = vec![vec![0.0f64; n]; n_modules];
    let mut one = vec![0.0f64; n];
    let fused_lane = time(4 * budget, &mut || {
        for (k, group) in groups.iter().enumerate() {
            dataset.mean_irradiance_group_into(group, 0..num_steps, &mut one);
            module.operating_points(&one, &ambient, &mut volts[k], &mut amps[k]);
        }
        std::hint::black_box((&volts, &amps));
    });
    let fused_scalar = time(4 * budget, &mut || {
        for (k, cells) in module_cells.iter().enumerate() {
            for i in 0..num_steps {
                let cond = dataset.conditions(i);
                let (v, a) = if cond.sun_up {
                    let mean_g = cells
                        .iter()
                        .map(|&c| dataset.irradiance(c, i).as_w_per_m2())
                        .sum::<f64>()
                        / cells.len() as f64;
                    let op =
                        module.operating_point(Irradiance::from_w_per_m2(mean_g), cond.ambient);
                    (op.voltage.value(), op.current.value())
                } else {
                    (0.0, 0.0)
                };
                volts[k][i as usize] = v;
                amps[k][i as usize] = a;
            }
        }
        std::hint::black_box((&volts, &amps));
    });

    // 3. String aggregation over the traces just built.
    let mut strings: Vec<Vec<usize>> = vec![Vec::new(); topology.strings()];
    for (k, &s) in plan.string_of.iter().enumerate() {
        strings[s].push(k);
    }
    let mut v_sum = vec![0.0f64; n];
    let mut i_min = vec![0.0f64; n];
    let agg_lane = time(50 * budget, &mut || {
        for mods in &strings {
            v_sum.fill(0.0);
            i_min.fill(f64::INFINITY);
            for &k in mods {
                lanes::add_assign(&mut v_sum, &volts[k]);
                lanes::min_assign(&mut i_min, &amps[k]);
            }
            std::hint::black_box((&v_sum, &i_min));
        }
    });
    let agg_scalar = time(50 * budget, &mut || {
        for mods in &strings {
            for i in 0..n {
                let mut vs = 0.0f64;
                let mut im = f64::INFINITY;
                for &k in mods {
                    vs += volts[k][i];
                    im = im.min(amps[k][i]);
                }
                v_sum[i] = vs;
                i_min[i] = im;
            }
            std::hint::black_box((&v_sum, &i_min));
        }
    });

    KernelTimings {
        kernels: vec![
            KernelTiming {
                name: "kernel_irradiance_census",
                lane_ns_per_eval: census_lane,
                scalar_ns_per_eval: census_scalar,
            },
            KernelTiming {
                name: "kernel_fused_iv",
                lane_ns_per_eval: fused_lane,
                scalar_ns_per_eval: fused_scalar,
            },
            KernelTiming {
                name: "kernel_string_agg",
                lane_ns_per_eval: agg_lane,
                scalar_ns_per_eval: agg_scalar,
            },
        ],
    }
}

/// Builds the probe cycle of an anneal-style proposal loop: up to
/// `take` feasible anchors module 0 can relocate to. Only module 0 ever
/// moves during the loops, so feasibility against modules `1..N` is
/// invariant and every probed relocation succeeds from any loop state.
///
/// # Panics
///
/// Panics when the plan does not match the config's topology or no
/// feasible relocation anchor exists (cannot happen on the paper roofs).
#[must_use]
pub fn relocation_probe(
    dataset: &SolarDataset,
    config: &FloorplanConfig,
    map: &SuitabilityMap,
    plan: &FloorplanResult,
    take: usize,
) -> Vec<CellCoord> {
    // Feasibility is pure geometry: probe a placement clone directly
    // instead of paying an evaluation context's trace machinery.
    let mut placement = plan.placement.clone();
    let probe: Vec<CellCoord> = map
        .anchor_scores(config.footprint())
        .enumerate()
        .filter(|(_, s)| s.is_finite())
        .map(|(c, _)| c)
        .filter(|&a| match placement.try_relocate(0, a, dataset.valid()) {
            Ok(old) => {
                placement
                    .try_relocate(0, old, dataset.valid())
                    .expect("undoing a probe move is always feasible");
                true
            }
            Err(_) => false,
        })
        .take(take)
        .collect();
    assert!(!probe.is_empty(), "no feasible relocation anchor");
    probe
}

/// Times an anneal-style proposal loop (move one module, re-score) on the
/// cold and incremental evaluation paths, single-threaded — the Sec. V-D
/// "candidate evaluation cost" probe whose numbers go into
/// `BENCH_evaluator.json` and EXPERIMENTS.md.
///
/// Both loops perform one successful relocation plus one full
/// `EnergyReport` per iteration, cycling module 0 through up to 32
/// feasible anchors ([`relocation_probe`], so every move succeeds). The
/// cold loop re-scores with [`EvaluationContext::evaluate_cold`]
/// (kernel + operating points for all N modules, as before the caching
/// refactor); the incremental loop uses `try_move` + the cached
/// re-score. Both contexts run with a memo pre-warmed over the probe
/// anchors, so the trace upkeep inside the cold loop's relocation is a
/// block copy — the cold number measures the pre-caching re-scoring
/// cost, not the new bookkeeping. The reports are bit-identical between
/// the two paths.
///
/// [`EvaluationContext::evaluate_cold`]: pv_floorplan::EvaluationContext::evaluate_cold
///
/// # Panics
///
/// Panics when the plan does not match the config's topology or no
/// feasible relocation anchor exists (cannot happen on the paper roofs).
#[must_use]
pub fn proposal_loop_timings(
    dataset: &SolarDataset,
    config: &FloorplanConfig,
    map: &SuitabilityMap,
    plan: &FloorplanResult,
    evals: usize,
) -> ProposalTimings {
    let evaluator = EnergyEvaluator::new(config).with_runtime(Runtime::sequential());
    let probe = relocation_probe(dataset, config, map, plan, 32);

    let time = |per_eval: &mut dyn FnMut(CellCoord)| -> f64 {
        let t0 = Instant::now();
        for e in 0..evals {
            per_eval(probe[e % probe.len()]);
        }
        t0.elapsed().as_secs_f64() / evals.max(1) as f64 * 1e9
    };

    let memo = TraceMemo::new();
    let warm_context = || {
        let mut ctx = evaluator
            .context(dataset, plan, Some(&memo))
            .expect("sized plan");
        for &anchor in &probe {
            ctx.try_move(0, anchor).expect("probed anchor");
            ctx.commit_move();
        }
        ctx
    };

    // Cold path: single relocation (trace upkeep reduced to a memo copy),
    // then the pre-caching full re-integration of all modules.
    let mut cold_ctx = warm_context();
    let cold_ns = time(&mut |anchor| {
        cold_ctx.try_move(0, anchor).expect("probed anchor");
        cold_ctx.commit_move();
        std::hint::black_box(cold_ctx.evaluate_cold());
    });

    // Incremental path: the same relocation, then the cached re-score.
    let mut inc_ctx = warm_context();
    let incremental_ns = time(&mut |anchor| {
        inc_ctx.try_move(0, anchor).expect("probed anchor");
        std::hint::black_box(inc_ctx.evaluate());
        inc_ctx.commit_move();
    });

    ProposalTimings {
        cold_ns_per_eval: cold_ns,
        incremental_ns_per_eval: incremental_ns,
    }
}

/// Directory where harness binaries write figures (`target/figures`).
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_gis::{PaperRoof, RoofScenario};

    #[test]
    fn smoke_row_has_positive_energies() {
        let scenario = RoofScenario::build(PaperRoof::Roof1);
        let runtime = Runtime::sequential();
        let dataset = extract_scenario_with(&scenario, Resolution::Smoke, runtime);
        let row = compare_row_with(&scenario, &dataset, 16, runtime);
        assert!(row.traditional.as_wh() > 0.0);
        assert!(row.proposed.as_wh() > 0.0);
        assert_eq!(row.n_modules, 16);
        assert_eq!(row.ng, scenario.dsm.valid().count());
    }

    #[test]
    fn bench_records_round_trip_through_the_json_reader() {
        let records = [
            BenchRecord {
                name: "proposal_cold".into(),
                scale: "30 days @ 60 min (smoke), N=32".into(),
                ns_per_eval: 1.25e6,
                speedup_vs_cold: 1.0,
            },
            BenchRecord {
                name: "proposal_incremental".into(),
                scale: "30 days @ 60 min (smoke), N=32".into(),
                ns_per_eval: 2.0e5,
                speedup_vs_cold: 6.25,
            },
        ];
        let doc = render_bench_records("evaluator_throughput", &records);
        let parsed = json::parse(&doc).unwrap();
        let items = parsed.as_array().unwrap();
        assert_eq!(items.len(), 2);
        for (item, record) in items.iter().zip(&records) {
            assert_eq!(
                item.get("bench").unwrap().as_str(),
                Some("evaluator_throughput")
            );
            assert_eq!(
                item.get("name").unwrap().as_str(),
                Some(record.name.as_str())
            );
            assert_eq!(
                item.get("scale").unwrap().as_str(),
                Some(record.scale.as_str())
            );
            assert!(item.get("ns_per_eval").unwrap().as_number().unwrap() > 0.0);
            assert!(item.get("speedup_vs_cold").unwrap().as_number().unwrap() > 0.0);
        }
    }

    #[test]
    fn proposal_loop_timings_are_positive_at_tiny_scale() {
        let scenario = RoofScenario::build(PaperRoof::Roof1);
        let dataset = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 120))
            .seed(WEATHER_SEED)
            .extract(&scenario.dsm);
        let config = FloorplanConfig::paper(Topology::new(4, 1).unwrap()).unwrap();
        let map = SuitabilityMap::compute(&dataset, &config);
        let plan = greedy_placement_with_map(&dataset, &config, &map).unwrap();
        let t = proposal_loop_timings(&dataset, &config, &map, &plan, 3);
        assert!(t.cold_ns_per_eval > 0.0);
        assert!(t.incremental_ns_per_eval > 0.0);
        assert!(t.speedup().is_finite());
    }

    #[test]
    fn kernel_probe_timings_are_positive_at_tiny_scale() {
        let scenario = RoofScenario::build(PaperRoof::Roof1);
        let dataset = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(2, 120))
            .seed(WEATHER_SEED)
            .extract(&scenario.dsm);
        let config = FloorplanConfig::paper(Topology::new(4, 1).unwrap()).unwrap();
        let map = SuitabilityMap::compute(&dataset, &config);
        let plan = greedy_placement_with_map(&dataset, &config, &map).unwrap();
        let probe = kernel_probe_timings(&dataset, &config, &plan, 1);
        assert_eq!(probe.kernels.len(), 3);
        for k in &probe.kernels {
            assert!(k.name.starts_with("kernel_"), "{}", k.name);
            assert!(k.lane_ns_per_eval > 0.0 && k.scalar_ns_per_eval > 0.0);
            assert!(k.speedup().is_finite());
        }
        let records = probe.to_records("tiny");
        assert_eq!(records.len(), 3);
        let doc = render_bench_records("unit", &records);
        assert!(json::parse(&doc).is_ok());
    }

    #[test]
    fn default_artifact_paths_are_relative() {
        for path in [EVALUATOR_JSON, SERVER_JSON, portfolio::PORTFOLIO_JSON] {
            assert!(std::path::Path::new(path).is_relative(), "{path}");
        }
    }

    #[test]
    fn resolution_clocks() {
        assert_eq!(Resolution::Paper.clock().num_steps(), 35_040);
        assert_eq!(Resolution::Fast.clock().num_steps(), 8_760);
        assert_eq!(Resolution::Smoke.clock().num_steps(), 720);
    }
}
