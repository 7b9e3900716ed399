//! Pipeline diagnostics dump, plus the Sec. V-D timing probe
//! (`--timings`) whose numbers are recorded in EXPERIMENTS.md.
//!
//! Usage: `cargo run -p pv_bench --bin diag --release [--fast|--smoke] [--threads N] [--timings]`
//!
//! `--fast`/`--smoke` select the diagnostics resolution (default: fast,
//! one year at hourly steps); the `--timings` probe is always pinned to
//! the 30-day smoke configuration so its numbers stay comparable across
//! runs (the EXPERIMENTS.md row is keyed to that scale). `--timings`
//! prints extraction, horizon-map and evaluator timings (the horizon map
//! also on one thread over typical residential corpus sites, the shape of
//! a served cold miss), the E7 placement scaling sweep (suitability vs
//! valid cells, greedy vs module count), and a per-kernel breakdown of
//! the lane-shaped hot loops (irradiance census, fused transposition +
//! operating-point pass, string aggregation — each against its scalar
//! reference shape). It is the only writer of
//! `BENCH_evaluator.json` (in the working directory): the proposal-loop
//! and `kernel_*` rows.

use pv_bench::{
    extract_scenario_with, kernel_probe_timings, paper_config, parse_harness_args,
    proposal_loop_timings, write_bench_records, HarnessArgs, Resolution,
};
use pv_floorplan::*;
use pv_gis::synth::CORPUS_SEED;
use pv_gis::{
    Dsm, HorizonMap, PaperRoof, RoofBuilder, RoofScenario, ScenarioSpec, Site, SolarExtractor,
};
use pv_obs::{Histogram, Timer};
use pv_runtime::Runtime;
use pv_units::Meters;

fn main() {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = parse_harness_args(&cli, &["--timings"]).and_then(|args| run(&args)) {
        eprintln!("Error: {e}");
        std::process::exit(1);
    }
}

fn run(args: &HarnessArgs) -> Result<(), String> {
    let runtime = args.runtime();
    if args.has("--timings") {
        return timings(runtime);
    }
    // Default to fast: the paper resolution adds nothing to these
    // structural diagnostics.
    let resolution = args.resolution_or(Resolution::Fast);
    let scenario = RoofScenario::build(PaperRoof::Roof2);
    let dataset = extract_scenario_with(&scenario, resolution, runtime);
    let config = paper_config(32);
    let map = SuitabilityMap::compute_with(&dataset, &config, runtime);
    let anchors = map.anchor_scores(config.footprint());
    let mut scores: Vec<f64> = anchors.iter().copied().filter(|s| s.is_finite()).collect();
    scores.sort_by(f64::total_cmp);
    let q = |p: f64| scores[((scores.len() - 1) as f64 * p) as usize];
    println!(
        "anchor scores: n={} min={:.1} p10={:.1} p50={:.1} p90={:.1} max={:.1}",
        scores.len(),
        q(0.0),
        q(0.1),
        q(0.5),
        q(0.9),
        q(1.0)
    );
    // cell-level spread
    let mut cs: Vec<f64> = map
        .scores()
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .collect();
    cs.sort_by(f64::total_cmp);
    let cq = |p: f64| cs[((cs.len() - 1) as f64 * p) as usize];
    println!(
        "cell scores:   n={} min={:.1} p10={:.1} p50={:.1} p90={:.1} max={:.1}",
        cs.len(),
        cq(0.0),
        cq(0.1),
        cq(0.5),
        cq(0.9),
        cq(1.0)
    );

    let trad = traditional_placement_with_map(&dataset, &config, &map).unwrap();
    let prop = greedy_placement_with_map(&dataset, &config, &map).unwrap();
    println!("trad mean anchor score: {:.1}", trad.mean_anchor_score);
    println!("prop mean anchor score: {:.1}", prop.mean_anchor_score);
    let ev = EnergyEvaluator::new(&config).with_runtime(runtime);
    for (name, plan) in [("trad", &trad), ("prop", &prop)] {
        let r = ev.evaluate(&dataset, plan).unwrap();
        println!("{name}: net {:.3} MWh gross {:.3} unconstrained {:.3} mismatch {:.2}% wire {:.1}m loss {:.2} kWh",
            r.energy.as_mwh(), r.gross_energy.as_mwh(), r.sum_of_module_energy.as_mwh(),
            r.mismatch_fraction()*100.0, r.extra_wire.as_meters(), r.wiring_loss.as_kwh());
    }
    Ok(())
}

/// Typical residential corpus sites the one-thread horizon line covers.
const TYPICAL_SITES: usize = 24;

/// Times the solar extractor, the horizon map (64 sectors, also in ns per
/// cell-sector) and the energy evaluator, each on one thread and on
/// `runtime`, on Roof 2, 30 days at hourly steps, N = 32; the horizon map
/// again on one thread over [`TYPICAL_SITES`] typical residential corpus
/// sites; then the E7 placement scaling sweep, the proposal loop and the
/// lane kernels.
fn timings(runtime: Runtime) -> Result<(), String> {
    let scenario = RoofScenario::build(PaperRoof::Roof2);
    let clock = Resolution::Smoke.clock();
    let config = paper_config(32);
    println!(
        "Sec. V-D timing probe — Roof 2, {} steps, N = 32, {} worker thread(s)",
        clock.num_steps(),
        runtime.threads()
    );

    // Same histogram type the serving layer records into: per-rep spans
    // land in log buckets, but `sum`/`count` are exact, so the reported
    // mean loses nothing over raw Instant arithmetic.
    let time = |f: &mut dyn FnMut()| -> f64 {
        f(); // warm-up
        let mut hist = Histogram::new();
        for _ in 0..5 {
            let t = Timer::start();
            f();
            hist.record(t.elapsed_us());
        }
        hist.sum() as f64 / hist.count() as f64 / 1e3
    };

    let seq_extractor = SolarExtractor::new(Site::turin(), clock)
        .seed(pv_bench::WEATHER_SEED)
        .runtime(Runtime::sequential());
    let par_extractor = seq_extractor.clone().runtime(runtime);
    let t_extract_seq = time(&mut || {
        std::hint::black_box(seq_extractor.extract(&scenario.dsm));
    });
    let t_extract_par = time(&mut || {
        std::hint::black_box(par_extractor.extract(&scenario.dsm));
    });

    let horizon_on = |runtime: Runtime| {
        time(&mut || {
            std::hint::black_box(HorizonMap::compute_with(&scenario.dsm, 64, runtime));
        })
    };
    let t_horizon_seq = horizon_on(Runtime::sequential());
    let t_horizon_par = horizon_on(runtime);
    let ns_per_cell_sector = |ms: f64| ms * 1e6 / (scenario.dsm.dims().num_cells() * 64) as f64;
    // The cold-miss shape: a service churning through many sites mostly
    // extracts typical residential roofs, a sixth of Roof 2's cells, on
    // one thread.
    let typical: Vec<Dsm> = (0..)
        .map(|index| ScenarioSpec::generate(CORPUS_SEED, index))
        .filter(ScenarioSpec::is_typical_residential)
        .take(TYPICAL_SITES)
        .map(|spec| spec.build().dsm)
        .collect();
    let typical_cells: usize = typical.iter().map(|dsm| dsm.dims().num_cells()).sum();
    let t_horizon_typical = time(&mut || {
        for dsm in &typical {
            std::hint::black_box(HorizonMap::compute_with(dsm, 64, Runtime::sequential()));
        }
    });

    let dataset = par_extractor.extract(&scenario.dsm);
    let map = SuitabilityMap::compute_with(&dataset, &config, runtime);
    let plan = greedy_placement_with_map(&dataset, &config, &map).unwrap();
    let seq_eval = EnergyEvaluator::new(&config).with_runtime(Runtime::sequential());
    let par_eval = EnergyEvaluator::new(&config).with_runtime(runtime);
    let t_eval_seq = time(&mut || {
        std::hint::black_box(seq_eval.evaluate(&dataset, &plan).unwrap());
    });
    let t_eval_par = time(&mut || {
        std::hint::black_box(par_eval.evaluate(&dataset, &plan).unwrap());
    });

    println!("extractor  sequential        {t_extract_seq:9.1} ms");
    println!(
        "extractor  {} thread(s)       {t_extract_par:9.1} ms  ({:.2}x)",
        runtime.threads(),
        t_extract_seq / t_extract_par
    );
    println!(
        "horizon    1 thread          {t_horizon_seq:9.1} ms  (64 sectors, {:.1} ns per cell-sector)",
        ns_per_cell_sector(t_horizon_seq)
    );
    println!(
        "horizon    {} thread(s)       {t_horizon_par:9.1} ms  ({:.2}x, {:.1} ns per cell-sector)",
        runtime.threads(),
        t_horizon_seq / t_horizon_par,
        ns_per_cell_sector(t_horizon_par)
    );
    println!(
        "horizon    1 thread, typical {t_horizon_typical:9.1} ms  ({TYPICAL_SITES} sites, {typical_cells} cells, {:.1} ns per cell-sector)",
        t_horizon_typical * 1e6 / (typical_cells * 64) as f64
    );
    println!("evaluator  1 thread          {t_eval_seq:9.1} ms");
    println!(
        "evaluator  {} thread(s)       {t_eval_par:9.1} ms  ({:.2}x)",
        runtime.threads(),
        t_eval_seq / t_eval_par
    );

    // E7: placement time scales with valid cells and module count. A
    // plain 10 m-deep roof at three widths, 30 days hourly (suitability
    // is linear in steps, so the scaling shape is preserved).
    let sweep = [10.0, 20.0, 40.0].map(|width_m| {
        let roof = RoofBuilder::new(Meters::new(width_m), Meters::new(10.0)).build();
        SolarExtractor::new(Site::turin(), clock)
            .seed(1)
            .runtime(runtime)
            .extract(&roof)
    });
    let config_16 = paper_config(16);
    for data in &sweep {
        let t = time(&mut || {
            std::hint::black_box(SuitabilityMap::compute_with(data, &config_16, runtime));
        });
        println!(
            "E7 suitability  {:>6} valid cells  {t:9.1} ms",
            data.valid().count()
        );
    }
    let wide = &sweep[2];
    for n in [8usize, 16, 32] {
        let config = paper_config(n);
        let map = SuitabilityMap::compute_with(wide, &config, runtime);
        let t = time(&mut || {
            std::hint::black_box(greedy_placement_with_map(wide, &config, &map).unwrap());
        });
        println!("E7 greedy       N = {n:>2}              {t:9.1} ms");
    }

    // Anneal-style proposal loop (single relocate + re-score),
    // single-threaded: cold full re-integration vs incremental delta
    // evaluation over the trace caches.
    let proposals = proposal_loop_timings(&dataset, &config, &map, &plan, 200);
    println!(
        "proposal   cold re-score     {:9.2} ms  (relocate + full integration)",
        proposals.cold_ns_per_eval / 1e6
    );
    println!(
        "proposal   incremental       {:9.2} ms  ({:.2}x vs cold)",
        proposals.incremental_ns_per_eval / 1e6,
        proposals.speedup()
    );

    // Per-kernel breakdown of the lane-shaped hot loops: the census,
    // the fused transposition + operating-point pass, and the string
    // aggregation, each against the scalar shape it replaced.
    let kernels = kernel_probe_timings(&dataset, &config, &plan, 5);
    println!("lane kernels:");
    for k in &kernels.kernels {
        println!(
            "  {:<26} {:9.3} ms  (scalar {:9.3} ms, {:.2}x)",
            k.name,
            k.lane_ns_per_eval / 1e6,
            k.scalar_ns_per_eval / 1e6,
            k.speedup()
        );
    }

    let mut records = proposals
        .to_records(&pv_bench::proposal_probe_scale())
        .to_vec();
    records.extend(kernels.to_records(&pv_bench::proposal_probe_scale()));
    let path = write_bench_records("diag --timings", &records)
        .map_err(|e| format!("write BENCH_evaluator.json: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_paths_return_messages_not_panics() {
        let bad = vec!["--threads".to_string(), "zero".to_string()];
        let err = parse_harness_args(&bad, &["--timings"]).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let unknown = vec!["--bogus".to_string()];
        let err = parse_harness_args(&unknown, &["--timings"]).unwrap_err();
        assert!(err.contains("unknown flag '--bogus'"), "{err}");
    }

    #[test]
    fn timings_flag_and_resolution_parse() {
        let cli = vec!["--timings".to_string(), "--smoke".to_string()];
        let args = parse_harness_args(&cli, &["--timings"]).expect("valid");
        assert!(args.has("--timings"));
        assert_eq!(args.resolution_or(Resolution::Fast), Resolution::Smoke);
    }
}
