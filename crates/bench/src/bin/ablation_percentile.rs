//! A1 — ablation of the suitability metric: percentile choice and the
//! temperature correction factor, on Roof 2 (N = 16).
//!
//! The paper argues the average is a poor signature of skewed irradiance
//! distributions and picks the 75th percentile with an f(T) correction;
//! this harness quantifies that choice.
//!
//! Usage: `cargo run -p pv_bench --bin ablation_percentile --release [--fast|--smoke] [--threads N]`

use pv_bench::{extract_scenario_with, parse_harness_args, Resolution};
use pv_floorplan::{greedy_placement_with_map, EnergyEvaluator, FloorplanConfig, SuitabilityMap};
use pv_gis::{PaperRoof, RoofScenario};
use pv_model::Topology;
use pv_runtime::Runtime;

fn main() {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_harness_args(&cli, &[]).unwrap_or_else(|e| {
        eprintln!("Error: {e}");
        std::process::exit(1);
    });
    let resolution = args.resolution_or(Resolution::Paper);
    let runtime = args.runtime();
    let scenario = RoofScenario::build(PaperRoof::Roof2);
    let dataset = extract_scenario_with(&scenario, resolution, runtime);
    let topology = Topology::new(8, 2).expect("valid topology");

    println!(
        "A1: suitability-metric ablation — {} (Roof 2, N = 16)\n",
        resolution.label()
    );
    println!("{:<28} {:>12} {:>9}", "metric", "energy MWh", "vs p75+fT");

    let reference = run(
        &dataset,
        FloorplanConfig::paper(topology).expect("config"),
        runtime,
    );
    for (label, config) in [
        (
            "p50 (median) + f(T)",
            FloorplanConfig::paper(topology)
                .expect("config")
                .with_percentile(0.5),
        ),
        (
            "p75 + f(T)  [paper]",
            FloorplanConfig::paper(topology).expect("config"),
        ),
        (
            "p90 + f(T)",
            FloorplanConfig::paper(topology)
                .expect("config")
                .with_percentile(0.9),
        ),
        (
            "p75, no T correction",
            FloorplanConfig::paper(topology)
                .expect("config")
                .with_temperature_correction(false),
        ),
        (
            "p25 (avg-like proxy)",
            FloorplanConfig::paper(topology)
                .expect("config")
                .with_percentile(0.25),
        ),
    ] {
        let energy = run(&dataset, config, runtime);
        println!(
            "{:<28} {:>12.3} {:>+8.2}%",
            label,
            energy,
            (energy / reference - 1.0) * 100.0
        );
    }
}

fn run(dataset: &pv_gis::SolarDataset, config: FloorplanConfig, runtime: Runtime) -> f64 {
    let map = SuitabilityMap::compute(dataset, &config);
    let plan = greedy_placement_with_map(dataset, &config, &map).expect("fits");
    EnergyEvaluator::new(&config)
        .with_runtime(runtime)
        .evaluate(dataset, &plan)
        .expect("sized")
        .energy
        .as_mwh()
}
