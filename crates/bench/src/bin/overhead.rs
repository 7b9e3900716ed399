//! E6 — regenerates the **Sec. V-C overhead assessment**: wiring power,
//! energy and cost overheads of the sparse placements.
//!
//! Paper figures to match in shape: ~0.11 W per metre at 4 A; ~0.5 kWh per
//! metre per year; overhead ~0.05%/m of yearly production; worst-case extra
//! wire ~20 m; cost ~1 $/m.
//!
//! Usage: `cargo run -p pv_bench --bin overhead --release [--fast|--smoke] [--threads N]`

use pv_bench::{extract_scenario_with, paper_config, parse_harness_args, Resolution};
use pv_floorplan::{greedy_placement_with_map, EnergyEvaluator, SuitabilityMap};
use pv_gis::paper_roofs;
use pv_model::WiringSpec;
use pv_units::{Amperes, Meters};

fn main() {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_harness_args(&cli, &[]).unwrap_or_else(|e| {
        eprintln!("Error: {e}");
        std::process::exit(1);
    });
    let resolution = args.resolution_or(Resolution::Paper);
    let runtime = args.runtime();
    println!("Sec. V-C overhead assessment — {}\n", resolution.label());

    // Static cable characterization (paper's conservative numbers).
    let spec = WiringSpec::awg10();
    let p_per_m = spec.power_loss(Meters::new(1.0), Amperes::new(4.0));
    println!(
        "cable: AWG10, {:.0} mohm/m, {} $/m",
        7.0,
        spec.cost_per_meter()
    );
    println!(
        "loss at 4 A: {:.3} W/m (paper ~0.11 W/m); {:.2} kWh/m/yr at 50% duty (paper ~0.5)",
        p_per_m.as_watts(),
        p_per_m.as_watts() * 8760.0 * 0.5 / 1000.0
    );
    println!();

    println!(
        "{:<8} {:>3} {:>12} {:>12} {:>12} {:>10} {:>9}",
        "Roof", "N", "energy MWh", "wire m", "loss kWh", "loss %", "%/m"
    );
    for scenario in paper_roofs() {
        let dataset = extract_scenario_with(&scenario, resolution, runtime);
        let map = SuitabilityMap::paper(&dataset, runtime);
        for n in [16usize, 32] {
            let config = paper_config(n);
            let plan = greedy_placement_with_map(&dataset, &config, &map).expect("fits");
            let report = EnergyEvaluator::new(&config)
                .with_runtime(runtime)
                .evaluate(&dataset, &plan)
                .expect("sized");
            let loss_pct = report.wiring_loss_fraction() * 100.0;
            let wire = report.extra_wire.as_meters();
            println!(
                "{:<8} {:>3} {:>12.3} {:>12.1} {:>12.2} {:>9.3}% {:>8.4}%",
                scenario.name(),
                n,
                report.energy.as_mwh(),
                wire,
                report.wiring_loss.as_kwh(),
                loss_pct,
                if wire > 0.0 { loss_pct / wire } else { 0.0 },
            );
        }
    }
    println!("\npaper claims: overhead ~0.05%/m, worst-case wire ~20 m -> negligible");
}
