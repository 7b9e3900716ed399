//! E4 — regenerates **Fig. 6-(b)**: the 75th-percentile irradiance maps of
//! the three roofs (brighter = more irradiated).
//!
//! Writes one PGM image per roof to `target/figures/` and prints ASCII
//! previews.
//!
//! Usage: `cargo run -p pv_bench --bin fig6_irradiance --release [--fast|--smoke] [--threads N]`

use pv_bench::{extract_scenario_with, figures_dir, parse_harness_args, Resolution};
use pv_floorplan::{render, SuitabilityMap};
use pv_gis::paper_roofs;

fn main() {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_harness_args(&cli, &[]).unwrap_or_else(|e| {
        eprintln!("Error: {e}");
        std::process::exit(1);
    });
    let resolution = args.resolution_or(Resolution::Paper);
    let runtime = args.runtime();
    let dir = figures_dir();
    println!("Fig 6-(b) reproduction — {}\n", resolution.label());

    for scenario in paper_roofs() {
        let dataset = extract_scenario_with(&scenario, resolution, runtime);
        let map = SuitabilityMap::paper(&dataset, runtime);
        let g75 = map.irradiance_percentile();

        let (lo, hi) = g75.finite_range().unwrap_or((0.0, 0.0));
        println!(
            "{} — p75(G) range {:.0}..{:.0} W/m2, Ng = {}",
            scenario.name(),
            lo,
            hi,
            dataset.valid().count()
        );
        println!("{}", render::ascii_heatmap(g75, 110));

        let path = dir.join(format!("fig6_roof{}.pgm", scenario.roof.number()));
        render::write_pgm(g75, &path).expect("write PGM");
        println!("wrote {}\n", path.display());
    }
}
