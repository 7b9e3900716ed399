//! E1 — regenerates **Table I**: traditional vs proposed yearly production
//! on the three roofs for N = 16 and N = 32 (8-series strings).
//!
//! Usage: `cargo run -p pv_bench --bin table1 --release [--fast|--smoke] [--threads N]`

use pv_bench::{
    compare_row_with_map, extract_scenario_with, parse_harness_args, HarnessArgs, Resolution,
};
use pv_floorplan::{SuitabilityMap, Table1Report};
use pv_gis::paper_roofs;
use std::time::Instant;

fn main() {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    match parse_harness_args(&cli, &[]) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("Error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &HarnessArgs) {
    let resolution = args.resolution_or(Resolution::Paper);
    let runtime = args.runtime();
    println!("Table I reproduction — {}", resolution.label());
    println!("(absolute MWh depend on the synthetic weather; the paper's");
    println!(" published % gains are shown in the right column)\n");

    let mut report = Table1Report::new();
    let start = Instant::now();
    for scenario in paper_roofs() {
        let t0 = Instant::now();
        let dataset = extract_scenario_with(&scenario, resolution, runtime);
        let extract_s = t0.elapsed().as_secs_f64();
        // The suitability map does not depend on N: one map per roof.
        let t1 = Instant::now();
        let map = SuitabilityMap::paper(&dataset, runtime);
        let suitability_s = t1.elapsed().as_secs_f64();
        for n in [16usize, 32] {
            let t2 = Instant::now();
            report.push(compare_row_with_map(&scenario, &dataset, n, &map, runtime));
            eprintln!(
                "  {} N={n}: extract {extract_s:.1}s, suitability {suitability_s:.1}s, place+evaluate {:.1}s",
                scenario.name(),
                t2.elapsed().as_secs_f64()
            );
        }
    }
    println!("{report}");
    eprintln!("total wall time: {:.1}s", start.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_paths_return_messages_not_panics() {
        let unknown = vec!["--frobnicate".to_string()];
        let err = parse_harness_args(&unknown, &[]).unwrap_err();
        assert!(err.contains("unknown flag '--frobnicate'"), "{err}");
        let dangling = vec!["--threads".to_string()];
        let err = parse_harness_args(&dangling, &[]).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn defaults_to_paper_resolution() {
        let args = parse_harness_args(&[], &[]).expect("empty args are valid");
        assert_eq!(args.resolution_or(Resolution::Paper), Resolution::Paper);
        assert!(args.threads.is_none());
    }
}
