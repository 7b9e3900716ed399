//! A1 — ablation of the suitability metric: percentile choice and the
//! temperature correction factor, on Roof 2 (N = 16).
//!
//! The paper argues the average is a poor signature of skewed irradiance
//! distributions and picks the 75th percentile with an f(T) correction;
//! this harness quantifies that choice.
//!
//! Percentiles run over every step, nights included, so a low percentile
//! whose nearest rank lands among the clock's dark steps scores every
//! cell an exact zero and greedy then ranks nothing. Such a row is
//! refused (printed with its rank instead of an energy): p25 and p50 both
//! land there at paper resolution (17,521 of 35,040 steps are dark).
//!
//! Usage: `cargo run -p pv_bench --bin ablation_percentile --release [--fast|--smoke] [--threads N]`

use pv_bench::{extract_scenario_with, paper_config, parse_harness_args, Resolution};
use pv_floorplan::{greedy_placement_with_map, EnergyEvaluator, FloorplanConfig, SuitabilityMap};
use pv_gis::{PaperRoof, RoofScenario, SolarDataset};
use pv_runtime::Runtime;

/// The metric rows in print order: label, percentile, f(T) correction.
/// Energies are reported relative to row [`PAPER_ROW`].
const ROWS: [(&str, f64, bool); 5] = [
    ("p55 + f(T)", 0.55, true),
    ("p75 + f(T)  [paper]", 0.75, true),
    ("p90 + f(T)", 0.9, true),
    ("p95 + f(T)", 0.95, true),
    ("p75, no T correction", 0.75, false),
];

/// The paper's metric: p75 with f(T).
const PAPER_ROW: usize = 1;

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

    println!(
        "A1: suitability-metric ablation — {} (Roof 2, N = 16)\n",
        resolution.label()
    );
    println!("{:<28} {:>12} {:>9}", "metric", "energy MWh", "vs p75+fT");

    let energies: Vec<Result<f64, String>> = ROWS
        .iter()
        .map(
            |&(_, percentile, correction)| match dark_rank(&dataset, percentile) {
                Some(why) => Err(why),
                None => Ok(run(
                    &dataset,
                    row_config(paper_config(16), percentile, correction),
                    runtime,
                )),
            },
        )
        .collect();
    let reference = energies[PAPER_ROW]
        .clone()
        .expect("the paper's p75 ranks above the dark steps at every resolution");
    for ((label, ..), energy) in ROWS.iter().zip(energies) {
        match energy {
            Ok(energy) => println!(
                "{:<28} {:>12.3} {:>+8.2}%",
                label,
                energy,
                (energy / reference - 1.0) * 100.0
            ),
            Err(why) => println!("{label:<28} {:>12} refused: {why}", "-"),
        }
    }
}

/// Why `percentile` measures nothing on `dataset`'s clock, if it does
/// not: its nearest rank (the suitability map's) falls among the dark
/// steps, whose samples are exact zeros in every cell.
fn dark_rank(dataset: &SolarDataset, percentile: f64) -> Option<String> {
    let total = dataset.num_steps() as usize;
    let dark = (0..dataset.num_steps())
        .filter(|&i| !dataset.conditions(i).sun_up)
        .count();
    let rank = ((total as f64 * percentile).ceil() as usize).clamp(1, total);
    (rank <= dark).then(|| format!("nearest rank {rank} of {total} is among {dark} dark steps"))
}

fn row_config(base: FloorplanConfig, percentile: f64, correction: bool) -> FloorplanConfig {
    base.with_percentile(percentile)
        .with_temperature_correction(correction)
}

fn run(dataset: &SolarDataset, config: FloorplanConfig, runtime: Runtime) -> f64 {
    let map = SuitabilityMap::compute_with(dataset, &config, runtime);
    let plan = greedy_placement_with_map(dataset, &config, &map).expect("fits");
    EnergyEvaluator::new(&config)
        .with_runtime(runtime)
        .evaluate(dataset, &plan)
        .expect("sized")
        .energy
        .as_mwh()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_gis::{RoofBuilder, Site, SolarExtractor};
    use pv_model::Topology;
    use pv_units::{Meters, SimulationClock};

    #[test]
    fn every_row_ranks_a_lit_sample_or_is_refused() {
        // Ten January days: well over half the steps are dark, so p55
        // lands among them and the higher rows do not.
        let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
        let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(10, 60))
            .seed(5)
            .runtime(Runtime::sequential())
            .extract(&roof);
        let base = FloorplanConfig::paper(Topology::new(1, 1).unwrap()).unwrap();
        let mut refused = Vec::new();
        for (label, percentile, correction) in ROWS {
            let config = row_config(base.clone(), percentile, correction);
            let map = SuitabilityMap::compute_with(&data, &config, Runtime::sequential());
            let lit = map.scores().iter().any(|&s| s > 0.0);
            let dark = dark_rank(&data, percentile);
            assert_eq!(lit, dark.is_none(), "{label}: {dark:?}");
            if dark.is_some() {
                refused.push(label);
            }
        }
        assert_eq!(refused, ["p55 + f(T)"]);
    }
}
