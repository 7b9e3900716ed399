//! The paper's three-roof case study (Sec. V) at preview resolution.
//!
//! Builds the synthetic reconstructions of the three industrial roofs,
//! runs traditional-vs-proposed for N = 16, and prints the comparison —
//! a fast preview of the full Table I harness
//! (`cargo run -p pv_bench --bin table1 --release`).
//!
//! Run: `cargo run --example industrial_roofs --release`

use pvfloorplan::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Quarter-year at hourly steps: enough to see the spatial structure.
    let clock = SimulationClock::days_at_minutes(91, 60);
    let config = FloorplanConfig::paper(Topology::new(8, 2)?)?;
    let evaluator = EnergyEvaluator::new(&config);

    println!("three-roof case study, N = 16 (2 strings of 8), 91 winter days");
    println!("(winter-quarter preview exaggerates shading gains; see table1 for the year)\n");
    println!(
        "{:<8} {:>7} {:>14} {:>14} {:>8}",
        "roof", "Ng", "compact kWh", "proposed kWh", "gain"
    );
    for scenario in paper_roofs() {
        let data = SolarExtractor::new(Site::turin(), clock)
            .seed(2018)
            .extract(&scenario.dsm);
        let map = SuitabilityMap::compute(&data, &config);
        let compact = pvfloorplan::floorplan::traditional_placement_with_map(&data, &config, &map)?;
        let proposed = pvfloorplan::floorplan::greedy_placement_with_map(&data, &config, &map)?;
        let e_c = evaluator.evaluate(&data, &compact)?;
        let e_p = evaluator.evaluate(&data, &proposed)?;
        println!(
            "{:<8} {:>7} {:>14.1} {:>14.1} {:>+7.1}%",
            scenario.name(),
            data.valid().count(),
            e_c.energy.as_kwh(),
            e_p.energy.as_kwh(),
            e_p.energy.percent_gain_over(e_c.energy)
        );
    }
    println!("\nfull-year Table I: cargo run -p pv_bench --bin table1 --release");
    Ok(())
}
