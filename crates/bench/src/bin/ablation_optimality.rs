//! A3 — optimality study: greedy vs exhaustive optimum on tiny roofs, and
//! greedy vs simulated-annealing refinement on a mid-size roof.
//!
//! The paper cannot compare against an exhaustive algorithm at roof scale
//! (Sec. V-B); at toy scale we can, quantifying the greedy heuristic's gap.
//! Every placer runs through [`Placer::place_with_memo`], the dispatch the
//! portfolio runner and the placement service use.
//!
//! Usage: `cargo run -p pv_bench --bin ablation_optimality --release [--threads N]`

use pv_bench::parse_harness_args;
use pv_floorplan::{
    greedy_placement_with_map, FloorplanConfig, Placer, PlacerOptions, SuitabilityMap, TraceMemo,
};
use pv_gis::{Obstacle, RoofBuilder, Site, SolarDataset, SolarExtractor};
use pv_model::Topology;
use pv_runtime::Runtime;
use pv_units::{Degrees, Meters, SimulationClock};

fn main() {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_harness_args(&cli, &[]).unwrap_or_else(|e| {
        eprintln!("Error: {e}");
        std::process::exit(1);
    });
    let runtime = args.runtime();
    println!("A3: optimality study\n");
    exact_study(runtime);
    anneal_study(runtime);
}

/// Yearly Wh of each of `placers` on `data`, sharing one greedy plan (the
/// greedy answer and the anneal start) and one trace memo.
fn energies<const K: usize>(
    data: &SolarDataset,
    config: &FloorplanConfig,
    placers: [Placer; K],
    options: &PlacerOptions,
    runtime: Runtime,
) -> [f64; K] {
    let map = SuitabilityMap::paper(data, runtime);
    let greedy = greedy_placement_with_map(data, config, &map);
    let memo = TraceMemo::new();
    placers.map(|placer| {
        let (_, report) = placer
            .place_with_memo(data, config, || greedy.clone(), options, runtime, &memo)
            .unwrap_or_else(|e| panic!("{placer}: {e}"));
        report.energy.as_wh()
    })
}

/// Greedy vs exhaustive optimum on a family of tiny shaded roofs.
fn exact_study(runtime: Runtime) {
    println!("-- greedy vs exhaustive optimum (tiny roofs, 2 modules in series) --");
    println!(
        "{:<26} {:>12} {:>12} {:>8}",
        "scenario", "greedy Wh", "optimal Wh", "gap"
    );
    let clock = SimulationClock::days_at_minutes(6, 120);
    let options = PlacerOptions {
        exact_budget: 5_000_000,
        ..PlacerOptions::default()
    };
    for (label, wall_x) in [
        ("wall on the east edge", 0.0),
        ("wall mid-roof", 2.4),
        ("wall on the west edge", 4.6),
    ] {
        let roof = RoofBuilder::new(Meters::new(4.8), Meters::new(0.8))
            .tilt(Degrees::new(26.0))
            .obstacle(Obstacle::off_roof_block(
                Meters::new(wall_x),
                Meters::new(0.0),
                Meters::new(0.2),
                Meters::new(0.8),
                Meters::new(2.5),
            ))
            .build();
        let data = SolarExtractor::new(Site::turin(), clock)
            .seed(41)
            .runtime(runtime)
            .extract(&roof);
        let config =
            FloorplanConfig::paper(Topology::new(2, 1).expect("topology")).expect("config");
        let [greedy_wh, optimal_wh] = energies(
            &data,
            &config,
            [Placer::Greedy, Placer::Exact],
            &options,
            runtime,
        );
        let gap = (1.0 - greedy_wh / optimal_wh) * 100.0;
        println!("{label:<26} {greedy_wh:>12.1} {optimal_wh:>12.1} {gap:>7.2}%");
    }
    println!();
}

/// Greedy vs annealing refinement on a mid-size obstructed roof.
fn anneal_study(runtime: Runtime) {
    println!("-- greedy vs simulated-annealing refinement (12x5 m roof, 8 modules) --");
    let roof = RoofBuilder::new(Meters::new(12.0), Meters::new(5.0))
        .obstacle(Obstacle::chimney(
            Meters::new(5.0),
            Meters::new(1.0),
            Meters::new(0.8),
            Meters::new(0.8),
            Meters::new(1.8),
        ))
        .obstacle(Obstacle::dormer(
            Meters::new(8.0),
            Meters::new(3.0),
            Meters::new(2.0),
            Meters::new(1.5),
            Meters::new(1.2),
        ))
        .build();
    let clock = SimulationClock::days_at_minutes(30, 60);
    let data = SolarExtractor::new(Site::turin(), clock)
        .seed(41)
        .runtime(runtime)
        .extract(&roof);
    let config = FloorplanConfig::paper(Topology::new(4, 2).expect("topology")).expect("config");
    let options = PlacerOptions {
        anneal_iterations: 400,
        seed: 7,
        ..PlacerOptions::default()
    };
    let [greedy_wh, annealed_wh] = energies(
        &data,
        &config,
        [Placer::Greedy, Placer::Anneal],
        &options,
        runtime,
    );
    println!(
        "greedy {greedy_wh:.1} Wh, +400 annealing moves {annealed_wh:.1} Wh ({:+.2}% headroom found)",
        (annealed_wh / greedy_wh - 1.0) * 100.0
    );
}
