//! A2 — ablation of the greedy algorithm's two structural choices on
//! Roof 2 (N = 32): series-first enumeration and the distance threshold.
//!
//! The paper credits series-first enumeration with avoiding the
//! weak-module bottleneck (its Roof 1 discussion) and uses the distance
//! threshold to contain wiring overhead; this harness isolates both.
//!
//! Usage: `cargo run -p pv_bench --bin ablation_greedy --release [--fast|--smoke] [--threads N]`

use pv_bench::{extract_scenario_with, paper_config, parse_harness_args, Resolution};
use pv_floorplan::{greedy_placement_with_map, EnergyEvaluator, SuitabilityMap};
use pv_gis::{PaperRoof, RoofScenario};

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
    // No variant changes the metric, so they all rank by one map.
    let map = SuitabilityMap::paper(&dataset, runtime);

    println!(
        "A2: greedy-structure ablation — {} (Roof 2, N = 32)\n",
        resolution.label()
    );
    println!(
        "{:<34} {:>12} {:>10} {:>10}",
        "variant", "energy MWh", "wire m", "mismatch"
    );

    for (label, config) in [
        ("paper (series-first + threshold)", paper_config(32)),
        (
            "no distance threshold",
            paper_config(32).with_distance_threshold(None),
        ),
        (
            "interleaved strings",
            paper_config(32).with_series_first(false),
        ),
        (
            "interleaved + no threshold",
            paper_config(32)
                .with_series_first(false)
                .with_distance_threshold(None),
        ),
        (
            "tight threshold (1.0x)",
            paper_config(32).with_distance_threshold(Some(1.0)),
        ),
    ] {
        let plan = greedy_placement_with_map(&dataset, &config, &map).expect("fits");
        let report = EnergyEvaluator::new(&config)
            .with_runtime(runtime)
            .evaluate(&dataset, &plan)
            .expect("sized");
        println!(
            "{:<34} {:>12.3} {:>10.1} {:>9.2}%",
            label,
            report.energy.as_mwh(),
            report.extra_wire.as_meters(),
            report.mismatch_fraction() * 100.0
        );
    }
}
