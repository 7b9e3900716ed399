//! `table1_fast`: the paper's Table I (three roofs, N = 16 and 32) at one
//! year hourly, as one batch process on `nproc` runtime workers.
//!
//! The untraced run drives the repository's own batch composition
//! (`pv_bench::compare_row_with`); the traced run composes the same
//! pipeline from the layers' public functions and times each call.

use crate::gen;
use crate::metrics::{median, ns_per, shadow_sun_s, tail, unaccounted_share};
use crate::Outcome;
use pv_floorplan::{
    greedy_placement_with_map, traditional_placement_with_map, ComparisonRow, EnergyEvaluator,
    FloorplanConfig, SuitabilityMap,
};
use pv_gis::{
    paper_roofs, HorizonMap, RoofScenario, Site, SolarDataset, SolarExtractor, WeatherGenerator,
};
use pv_model::Topology;
use pv_runtime::Runtime;
use pv_units::SimulationClock;
use std::time::Instant;

const MODULE_COUNTS: [usize; 2] = [16, 32];
const HORIZON_SECTORS: usize = 64;
const SETUP_REPS: usize = 5;

fn clock() -> SimulationClock {
    SimulationClock::year_at_minutes(60)
}

fn extractor(weather_seed: u64, runtime: Runtime) -> SolarExtractor {
    SolarExtractor::new(Site::turin(), clock())
        .seed(weather_seed)
        .horizon_sectors(HORIZON_SECTORS)
        .runtime(runtime)
}

fn config(n: usize) -> FloorplanConfig {
    let topology = Topology::new(8, n / 8).expect("paper topologies are 8-series");
    FloorplanConfig::paper(topology).expect("paper module aligns to the 20 cm grid")
}

/// The bytes a Table I row is judged by: every field, energies as bits.
fn row_key(row: &ComparisonRow) -> String {
    format!(
        "{}|{}x{}|{}|{}|{:016x}|{:016x}",
        row.label,
        row.dims.0,
        row.dims.1,
        row.ng,
        row.n_modules,
        row.traditional.as_wh().to_bits(),
        row.proposed.as_wh().to_bits()
    )
}

/// The benchmark's own composition of one roof's rows, on one thread:
/// the reference every measured pass is compared against.
fn reference_rows(scenarios: &[RoofScenario], weather_seed: u64) -> Vec<String> {
    let runtime = Runtime::sequential();
    let mut rows = Vec::new();
    for scenario in scenarios {
        let dataset = extractor(weather_seed, runtime).extract(&scenario.dsm);
        for n in MODULE_COUNTS {
            let config = config(n);
            let map = SuitabilityMap::compute(&dataset, &config);
            let evaluator = EnergyEvaluator::new(&config).with_runtime(runtime);
            let energy = |plan| {
                evaluator
                    .evaluate(&dataset, &plan)
                    .expect("plans are sized by construction")
                    .energy
            };
            rows.push(row_key(&ComparisonRow {
                label: scenario.name(),
                dims: (dataset.dims().width(), dataset.dims().height()),
                ng: dataset.valid().count(),
                n_modules: n,
                traditional: energy(
                    traditional_placement_with_map(&dataset, &config, &map)
                        .expect("compact block fits the paper roofs"),
                ),
                proposed: energy(
                    greedy_placement_with_map(&dataset, &config, &map)
                        .expect("greedy fits the paper roofs"),
                ),
                published_gain_percent: scenario.roof.published_gain_percent(n),
            }));
        }
    }
    rows
}

/// One untraced pass through the repository's batch path. Returns the
/// rows and each roof job's latency (extract plus both rows), seconds.
fn untraced_pass(
    scenarios: &[RoofScenario],
    weather_seed: u64,
    runtime: Runtime,
) -> (Vec<String>, Vec<f64>) {
    let mut rows = Vec::new();
    let mut jobs = Vec::new();
    for scenario in scenarios {
        let t0 = Instant::now();
        let dataset = extractor(weather_seed, runtime).extract(&scenario.dsm);
        for n in MODULE_COUNTS {
            rows.push(row_key(&pv_bench::compare_row_with(
                scenario, &dataset, n, runtime,
            )));
        }
        jobs.push(t0.elapsed().as_secs_f64());
    }
    (rows, jobs)
}

/// Per-pass layer totals of a traced pass, seconds unless noted.
#[derive(Default, Clone, Copy)]
struct Layers {
    horizon: f64,
    weather: f64,
    extract: f64,
    suitability: f64,
    suitability_calls: f64,
    place: f64,
    evaluate: f64,
    /// Shadow-table cell-steps: cells × beam steps, summed over roofs.
    shadow_units: f64,
    /// Suitability cell-steps: valid cells × steps, summed over calls.
    suitability_units: f64,
    /// Evaluation module-steps: modules × steps, summed over calls.
    evaluate_units: f64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// One traced pass: the pipeline composed from the layers' public
/// functions, each call timed. The horizon map and weather run once
/// more on their own, since extraction calls them internally.
fn traced_pass(
    scenarios: &[RoofScenario],
    weather_seed: u64,
    runtime: Runtime,
) -> (Vec<String>, Layers) {
    let mut l = Layers::default();
    let mut rows = Vec::new();
    for scenario in scenarios {
        timed(&mut l.horizon, || {
            std::hint::black_box(HorizonMap::compute(&scenario.dsm, HORIZON_SECTORS))
        });
        timed(&mut l.weather, || {
            std::hint::black_box(WeatherGenerator::new(weather_seed).generate(clock()))
        });
        let dataset: SolarDataset = timed(&mut l.extract, || {
            extractor(weather_seed, runtime).extract(&scenario.dsm)
        });
        let beam_steps = dataset
            .beam_row_map()
            .iter()
            .filter(|&&r| r != u32::MAX)
            .count();
        let steps = f64::from(dataset.num_steps());
        l.shadow_units += (dataset.dims().num_cells() * beam_steps) as f64;
        for n in MODULE_COUNTS {
            let config = config(n);
            let map = timed(&mut l.suitability, || {
                SuitabilityMap::compute(&dataset, &config)
            });
            l.suitability_calls += 1.0;
            l.suitability_units += dataset.valid().count() as f64 * steps;
            let (traditional, proposed) = timed(&mut l.place, || {
                (
                    traditional_placement_with_map(&dataset, &config, &map)
                        .expect("compact block fits the paper roofs"),
                    greedy_placement_with_map(&dataset, &config, &map)
                        .expect("greedy fits the paper roofs"),
                )
            });
            let evaluator = EnergyEvaluator::new(&config).with_runtime(runtime);
            let (trad, prop) = timed(&mut l.evaluate, || {
                (
                    evaluator
                        .evaluate(&dataset, &traditional)
                        .expect("sized plan")
                        .energy,
                    evaluator
                        .evaluate(&dataset, &proposed)
                        .expect("sized plan")
                        .energy,
                )
            });
            l.evaluate_units += 2.0 * n as f64 * steps;
            rows.push(row_key(&ComparisonRow {
                label: scenario.name(),
                dims: (dataset.dims().width(), dataset.dims().height()),
                ng: dataset.valid().count(),
                n_modules: n,
                traditional: trad,
                proposed: prop,
                published_gain_percent: scenario.roof.published_gain_percent(n),
            }));
        }
    }
    (rows, l)
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let weather_seed = gen::weather_seed(seed);
    let runtime = Runtime::with_threads(crate::nproc());
    out.note(format!(
        "table1_fast: 3 paper roofs x N in {MODULE_COUNTS:?}, 1 year @ 60 min, weather seed {weather_seed}, {} runtime worker(s)",
        runtime.threads()
    ));

    // Set-up: building the three paper roofs' scenarios (DSMs).
    let mut setups = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        scenarios = paper_roofs();
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);

    let reference = reference_rows(&scenarios, weather_seed);
    let check = |rows: &[String], out: &mut Outcome| {
        out.attempted += rows.len() as u64;
        out.failed += rows
            .iter()
            .zip(&reference)
            .filter(|(row, want)| row != want)
            .count() as u64
            + reference.len().abs_diff(rows.len()) as u64;
    };

    let start = Instant::now();
    if !trace {
        let mut walls = Vec::new();
        let mut jobs = Vec::new();
        // A pass starts only if one more of the last one's length fits.
        while walls
            .last()
            .is_none_or(|last| start.elapsed().as_secs_f64() + last <= seconds)
        {
            let t0 = Instant::now();
            let (rows, job_s) = untraced_pass(&scenarios, weather_seed, runtime);
            walls.push(t0.elapsed().as_secs_f64());
            check(&rows, out);
            jobs.extend(job_s.iter().map(|s| s * 1e3));
        }
        let (q, p_tail) = tail(&jobs);
        out.note(format!(
            "{} pass(es), pass wall {:?} s; {} roof jobs, tail = p{:.1}",
            walls.len(),
            walls,
            jobs.len(),
            q * 100.0
        ));
        out.metric("setup_s", setup_s);
        out.metric("wall_s", median(&walls));
        out.metric("p50_ms", median(&jobs));
        out.metric("p99_ms", p_tail);
        out.metric("rps", jobs.len() as f64 / walls.iter().sum::<f64>());
        out.metric("peak_rss_mb", crate::peak_rss_mb(std::process::id()));
        return;
    }

    // Traced: one untraced pass for the overhead base, then traced passes.
    let t0 = Instant::now();
    let (rows, _) = untraced_pass(&scenarios, weather_seed, runtime);
    let untraced_wall = t0.elapsed().as_secs_f64();
    check(&rows, out);
    let mut passes: Vec<(f64, Layers)> = Vec::new();
    while passes
        .last()
        .is_none_or(|(last, _)| start.elapsed().as_secs_f64() + last <= seconds)
    {
        let t0 = Instant::now();
        let (rows, layers) = traced_pass(&scenarios, weather_seed, runtime);
        passes.push((t0.elapsed().as_secs_f64(), layers));
        check(&rows, out);
    }
    let med = |f: fn(&Layers) -> f64| median(&passes.iter().map(|(_, l)| f(l)).collect::<Vec<_>>());
    let wall = median(&passes.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    let (horizon, weather, extract) = (med(|l| l.horizon), med(|l| l.weather), med(|l| l.extract));
    let shadow_sun = shadow_sun_s(extract, horizon, weather);
    let suitability = med(|l| l.suitability);
    let (place, evaluate) = (med(|l| l.place), med(|l| l.evaluate));
    let spans = horizon + weather + extract + suitability + place + evaluate;
    out.note(format!(
        "{} traced pass(es), traced wall {wall:.3} s vs untraced {untraced_wall:.3} s",
        passes.len()
    ));
    out.metric("gis.horizon_s", horizon);
    out.metric("gis.weather_s", weather);
    out.metric("gis.extract_s", extract);
    out.metric("gis.shadow_sun_s", shadow_sun);
    out.metric(
        "gis.shadow_ns_per_cell_step",
        ns_per(shadow_sun, med(|l| l.shadow_units)),
    );
    out.metric("floorplan.suitability_s", suitability);
    out.metric("floorplan.suitability_calls", med(|l| l.suitability_calls));
    out.metric(
        "floorplan.suitability_ns_per_cell_step",
        ns_per(suitability, med(|l| l.suitability_units)),
    );
    out.metric("floorplan.place_s", place);
    out.metric("floorplan.evaluate_s", evaluate);
    out.metric(
        "floorplan.evaluate_ns_per_module_step",
        ns_per(evaluate, med(|l| l.evaluate_units)),
    );
    out.metric("trace.unaccounted_share", unaccounted_share(wall, spans));
    out.metric(
        "trace.overhead_share",
        (wall - untraced_wall) / untraced_wall,
    );
}
