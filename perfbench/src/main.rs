//! The repository benchmark. One command runs one workload, checks its
//! outputs against an in-process reference, and prints every metric by
//! name with its unit; the last stdout line is the JSON result.
//!
//! ```text
//! perfbench --workload table1_fast|serve_warm|route_churn --seed N
//!           --seconds S --trace 0|1 --pvplan PATH [--scratch DIR] [--out PATH]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` is the separate traced run that times the calls into
//! each layer and prints the per-layer metrics. See README.md.

mod gen;
mod load;
mod metrics;
mod serve;
mod table1;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics `(name, unit)`, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every `--trace 1` run. A
/// layer a workload does not run reads 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("gis.horizon_s", "s"),
    ("gis.weather_s", "s"),
    ("gis.extract_s", "s"),
    ("gis.shadow_sun_s", "s"),
    ("gis.shadow_ns_per_cell_step", "ns"),
    ("floorplan.suitability_s", "s"),
    ("floorplan.suitability_calls", "count"),
    ("floorplan.suitability_ns_per_cell_step", "ns"),
    ("floorplan.place_s", "s"),
    ("floorplan.evaluate_s", "s"),
    ("floorplan.evaluate_ns_per_module_step", "ns"),
    ("server.inbound_us", "us"),
    ("server.outbound_us", "us"),
    ("server.handle_us", "us"),
    ("server.handle_greedy_us", "us"),
    ("server.handle_anneal_us", "us"),
    ("server.handle_exact_us", "us"),
    ("server.stage_sum_us", "us"),
    ("server.cache_hit_rate", "ratio"),
    ("server.cache_misses", "count"),
    ("router.handle_us", "us"),
    ("router.hop_us", "us"),
    ("store.writes", "count"),
    ("store.hydrated", "count"),
    ("store.write_errors", "count"),
    ("load.lag_ms", "ms"),
    ("load.open_samples", "count"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (rows, requests).
    pub attempted: u64,
    /// Operations that failed or returned bytes other than the reference.
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Worker threads, client threads and connections all scale with this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A process's peak resident set (`VmHWM`), MiB; 0 when unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a workload needs from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `pvplan` binary (serve workloads).
    pub pvplan: Option<PathBuf>,
    /// Directory for stores, port files and child logs.
    pub scratch: PathBuf,
    /// Where to write the full result record, if anywhere.
    pub out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        pvplan: None,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                }
            }
            "--pvplan" => args.pvplan = Some(PathBuf::from(value()?)),
            "--scratch" => args.scratch = PathBuf::from(value()?),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The host facts every result records.
fn host() -> BTreeMap<&'static str, String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    BTreeMap::from([
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("commit", commit),
    ])
}

/// The metrics a run prints: per-layer when traced, else end-to-end.
fn metric_table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn render_result(correct: bool, out: &Outcome, trace: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in metric_table(trace) {
        let value = match out.metrics.get(*name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        metrics.push(format!(
            r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
        ));
    }
    Ok(format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "table1_fast" => table1::run(args.seed, args.seconds, args.trace, &mut out),
        "serve_warm" => serve::serve_warm(args, &mut out)?,
        "route_churn" => serve::route_churn(args, &mut out)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let result = render_result(correct, &out, args.trace)?;

    let host = host();
    for line in &out.notes {
        println!("# {line}");
    }
    println!(
        "# host: nproc {}, cpu {}, commit {}",
        host["nproc"], host["cpu"], host["commit"]
    );
    println!(
        "# error_rate {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for (name, unit) in metric_table(args.trace) {
        println!(
            "# {name} = {} {unit}",
            out.metrics.get(*name).copied().unwrap_or(0.0)
        );
    }
    if let Some(path) = &args.out {
        let mut record = pv_json::ObjectBuilder::new()
            .field("workload", args.workload.as_str())
            .field("seed", args.seed.to_string())
            .field("seconds", args.seconds)
            .field("trace", u32::from(args.trace));
        for (key, value) in &host {
            record = record.field(key, value.as_str());
        }
        let notes: Vec<pv_json::JsonValue> = out
            .notes
            .iter()
            .map(|n| pv_json::JsonValue::from(n.as_str()))
            .collect();
        let record = record
            .field("notes", pv_json::JsonValue::Array(notes))
            .field(
                "result",
                pv_json::parse(&result).map_err(|e| e.to_string())?,
            )
            .build()
            .to_json_string();
        std::fs::write(path, record + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(result)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| run(&args));
    match outcome {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.metric(name, 1.25);
        }
        let line = render_result(true, &out, false).unwrap();
        let parsed = pv_json::parse(&line).unwrap();
        let pv_json::JsonValue::Object(fields) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_number(), Some(1.25));
    }

    #[test]
    fn missing_end_to_end_metrics_are_an_error_but_layers_default_to_zero() {
        let out = Outcome::default();
        assert!(render_result(true, &out, false).is_err());
        let line = render_result(true, &out, true).unwrap();
        assert!(line.contains(r#""store.writes": {"value": 0.0, "unit": "count"}"#));
    }
}
