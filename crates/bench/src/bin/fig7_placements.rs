//! E5 — regenerates **Fig. 7**: traditional (a-c) vs proposed (d-f)
//! placements for N = 32 on the three roofs. Digits are series-string
//! indices (panels with the same digit are connected in series), `.` is
//! free suitable area, `x` is unusable.
//!
//! Usage: `cargo run -p pv_bench --bin fig7_placements --release [--fast|--smoke] [--threads N]`

use pv_bench::{extract_scenario_with, paper_config, parse_harness_args, Resolution};
use pv_floorplan::{
    greedy_placement_with_map, render, traditional_placement_with_map, EnergyEvaluator,
    SuitabilityMap,
};
use pv_gis::paper_roofs;

fn main() {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_harness_args(&cli, &[]).unwrap_or_else(|e| {
        eprintln!("Error: {e}");
        std::process::exit(1);
    });
    let resolution = args.resolution_or(Resolution::Paper);
    let runtime = args.runtime();
    let config = paper_config(32);
    println!(
        "Fig 7 reproduction (N = 32, 4 strings of 8) — {}\n",
        resolution.label()
    );

    for scenario in paper_roofs() {
        let dataset = extract_scenario_with(&scenario, resolution, runtime);
        let map = SuitabilityMap::paper(&dataset, runtime);
        let evaluator = EnergyEvaluator::new(&config).with_runtime(runtime);

        let traditional =
            traditional_placement_with_map(&dataset, &config, &map).expect("compact block fits");
        let proposed = greedy_placement_with_map(&dataset, &config, &map).expect("greedy fits");
        let e_trad = evaluator.evaluate(&dataset, &traditional).expect("sized");
        let e_prop = evaluator.evaluate(&dataset, &proposed).expect("sized");

        println!(
            "=== {} — traditional {:.3} MWh ===",
            scenario.name(),
            e_trad.energy.as_mwh()
        );
        println!(
            "{}",
            render::ascii_placement(&traditional, dataset.valid(), 110)
        );
        println!(
            "=== {} — proposed {:.3} MWh ({:+.2}%), extra wire {:.1} m ===",
            scenario.name(),
            e_prop.energy.as_mwh(),
            e_prop.energy.percent_gain_over(e_trad.energy),
            e_prop.extra_wire.as_meters()
        );
        println!(
            "{}",
            render::ascii_placement(&proposed, dataset.valid(), 110)
        );
    }
}
