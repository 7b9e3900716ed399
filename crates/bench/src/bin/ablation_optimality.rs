//! A3 — optimality study: greedy vs exhaustive optimum on tiny roofs, and
//! greedy vs simulated-annealing refinement on a mid-size roof.
//!
//! The paper cannot compare against an exhaustive algorithm at roof scale
//! (Sec. V-B); at toy scale we can, quantifying the greedy heuristic's gap.
//!
//! Usage: `cargo run -p pv_bench --bin ablation_optimality --release [--threads N]`

use pv_bench::parse_harness_args;
use pv_floorplan::anneal::{anneal_with_runtime, AnnealConfig};
use pv_floorplan::exact::optimal_placement_with_runtime;
use pv_floorplan::{greedy_placement, EnergyEvaluator, FloorplanConfig};
use pv_gis::{Obstacle, RoofBuilder, Site, SolarExtractor};
use pv_model::Topology;
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

/// Greedy vs exhaustive optimum on a family of tiny shaded roofs.
fn exact_study(runtime: pv_runtime::Runtime) {
    println!("-- greedy vs exhaustive optimum (tiny roofs, 2 modules in series) --");
    println!(
        "{:<26} {:>12} {:>12} {:>8}",
        "scenario", "greedy Wh", "optimal Wh", "gap"
    );
    let clock = SimulationClock::days_at_minutes(6, 120);
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
        let greedy = greedy_placement(&data, &config).expect("fits");
        let greedy_wh = EnergyEvaluator::new(&config)
            .evaluate(&data, &greedy)
            .expect("sized")
            .energy;
        let (_, optimal_wh) = optimal_placement_with_runtime(&data, &config, 5_000_000, runtime)
            .expect("search feasible");
        let gap = (1.0 - greedy_wh.as_wh() / optimal_wh.as_wh()) * 100.0;
        println!(
            "{:<26} {:>12.1} {:>12.1} {:>7.2}%",
            label,
            greedy_wh.as_wh(),
            optimal_wh.as_wh(),
            gap
        );
    }
    println!();
}

/// Greedy vs annealing refinement on a mid-size obstructed roof.
fn anneal_study(runtime: pv_runtime::Runtime) {
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
    let greedy = greedy_placement(&data, &config).expect("fits");
    let greedy_wh = EnergyEvaluator::new(&config)
        .evaluate(&data, &greedy)
        .expect("sized")
        .energy;
    let (_, annealed_wh) = anneal_with_runtime(
        &data,
        &config,
        &greedy,
        AnnealConfig {
            iterations: 400,
            seed: 7,
            ..AnnealConfig::default()
        },
        runtime,
    )
    .expect("anneal");
    println!(
        "greedy {:.1} Wh, +400 annealing moves {:.1} Wh ({:+.2}% headroom found)",
        greedy_wh.as_wh(),
        annealed_wh.as_wh(),
        (annealed_wh.as_wh() / greedy_wh.as_wh() - 1.0) * 100.0
    );
}
