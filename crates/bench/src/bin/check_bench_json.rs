//! CI guard for the machine-readable bench artifacts.
//!
//! Validates that a bench artifact — `BENCH_evaluator.json` (written by
//! `diag --timings`),
//! `BENCH_portfolio.json` (written by `pvplan suite`) or `BENCH_server.json` (written by the `loadgen` bin)
//! — exists and matches the schema the perf-trajectory tooling expects: a non-empty JSON array of objects, each carrying the
//! shared string core (`bench`, `scale`, `name`) plus its variant's
//! numeric measurements, all finite and non-negative. Evaluator rows
//! named `kernel_*` additionally act as a perf gate: their
//! `speedup_vs_cold` (lane kernel vs its scalar reference shape) must
//! be present and at least 1. Exits non-zero with a diagnostic
//! otherwise — keeping the artifacts honest and fully offline.
//!
//! Also validates the `pvlint --json` artifact, recognised by its
//! top-level `"tool": "pvlint"` tag: scan counters plus a findings
//! array whose entries carry rule, file, line and message.
//!
//! Two observability artifacts ride through the same gate:
//!
//! - **Prometheus exposition text** (a `/v1/metrics` scrape, recognised
//!   by its leading `#` comment line): every sample must be declared by
//!   a preceding `# TYPE`, every value must be a finite number, and the
//!   core serving counters must be present.
//! - **Trace-log JSONL** (written by `--trace-log`, recognised by a
//!   first line that is a JSON object with a `"trace"` field): every
//!   line must carry a 16-hex trace id, a target, an HTTP status, and
//!   finite non-negative span durations.
//!
//! Usage: `cargo run -p pv_bench --bin check_bench_json [path]...`
//! (no path: checks `./BENCH_evaluator.json`).

use pv_bench::json::{parse, JsonValue};

/// Checks one numeric field for existence, finiteness and non-negativity.
fn check_number(item: &JsonValue, i: usize, key: &str) -> Result<(), String> {
    let x = item
        .get(key)
        .and_then(JsonValue::as_number)
        .ok_or(format!("record {i}: missing numeric field {key:?}"))?;
    if !x.is_finite() || x < 0.0 {
        return Err(format!("record {i}: {key} = {x} is not a sane measurement"));
    }
    Ok(())
}

/// Validates the `pvlint --json` artifact: counters must be counts, and
/// every finding must name its rule, file, line and message. An empty
/// findings array is valid — that is what a clean tree writes.
fn validate_pvlint(value: &JsonValue) -> Result<usize, String> {
    for key in ["version", "files_scanned", "suppressed"] {
        let x = value
            .get(key)
            .and_then(JsonValue::as_number)
            .ok_or(format!("pvlint artifact: missing numeric field {key:?}"))?;
        if !x.is_finite() || x < 0.0 || x.fract() != 0.0 {
            return Err(format!("pvlint artifact: {key} = {x} is not a count"));
        }
    }
    if value.get("files_scanned").and_then(JsonValue::as_number) < Some(1.0) {
        return Err("pvlint artifact: files_scanned must be at least 1".into());
    }
    let findings = value
        .get("findings")
        .and_then(JsonValue::as_array)
        .ok_or("pvlint artifact: missing \"findings\" array")?;
    for (i, item) in findings.iter().enumerate() {
        for key in ["rule", "severity", "file", "message"] {
            item.get(key)
                .and_then(JsonValue::as_str)
                .filter(|s| !s.is_empty())
                .ok_or(format!(
                    "finding {i}: missing or empty string field {key:?}"
                ))?;
        }
        // The excerpt must exist but may legitimately be empty.
        item.get("excerpt")
            .and_then(JsonValue::as_str)
            .ok_or(format!("finding {i}: missing string field \"excerpt\""))?;
        let line = item
            .get("line")
            .and_then(JsonValue::as_number)
            .ok_or(format!("finding {i}: missing numeric field \"line\""))?;
        if !line.is_finite() || line < 1.0 || line.fract() != 0.0 {
            return Err(format!("finding {i}: line {line} is not a 1-based line"));
        }
    }
    Ok(findings.len())
}

/// Validates a `/v1/metrics` scrape: Prometheus exposition text, version
/// 0.0.4. Every non-comment line is `name[{labels}] value`; every sample
/// family must be declared by a `# TYPE` line before its first sample;
/// every value must be a finite number; and the serving counters the CI
/// smoke step depends on must all be present. Returns the sample count.
fn validate_exposition(doc: &str) -> Result<usize, String> {
    let mut declared: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (i, line) in doc.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                match decl.split(' ').collect::<Vec<_>>()[..] {
                    [name, "counter" | "gauge" | "histogram"] => declared.push(name.to_string()),
                    _ => return Err(format!("line {n}: malformed TYPE declaration: {line}")),
                }
            } else if !comment.starts_with("HELP ") {
                return Err(format!(
                    "line {n}: comment is neither HELP nor TYPE: {line}"
                ));
            }
            continue;
        }
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {n}: sample has no value: {line}"))?;
        let family = name_labels
            .split(['{', ' '])
            .next()
            .unwrap_or(name_labels)
            // Histogram series share their family's TYPE declaration.
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        if !declared.iter().any(|d| d == family) {
            return Err(format!(
                "line {n}: sample '{family}' has no TYPE declaration"
            ));
        }
        let x: f64 = value
            .parse()
            .map_err(|e| format!("line {n}: value '{value}' is not a number ({e})"))?;
        if !x.is_finite() {
            return Err(format!("line {n}: value {x} is not finite"));
        }
        samples += 1;
    }
    for required in [
        "pv_requests_total",
        "pv_place_ok_total",
        "pv_errors_total",
        "pv_store_writes_total",
        "pv_cache_entries",
        "pv_place_latency_us",
    ] {
        if !declared.iter().any(|d| d == required) {
            return Err(format!("exposition is missing the {required} family"));
        }
    }
    Ok(samples)
}

/// Validates a `--trace-log` JSONL file: every line is one JSON event
/// carrying a 16-hex `trace` id, a non-empty `target`, an integral HTTP
/// `status`, and finite non-negative `total_us`/stage durations. Returns
/// the event count.
fn validate_trace_log(doc: &str) -> Result<usize, String> {
    let mut events = 0usize;
    for (i, line) in doc.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        let event = parse(line).map_err(|e| format!("line {n}: not valid JSON: {e}"))?;
        let trace = event
            .get("trace")
            .and_then(JsonValue::as_str)
            .ok_or(format!("line {n}: missing string field \"trace\""))?;
        if trace.len() != 16 || !trace.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("line {n}: trace id '{trace}' is not 16 hex digits"));
        }
        event
            .get("target")
            .and_then(JsonValue::as_str)
            .filter(|s| !s.is_empty())
            .ok_or(format!(
                "line {n}: missing or empty string field \"target\""
            ))?;
        let status = event
            .get("status")
            .and_then(JsonValue::as_number)
            .ok_or(format!("line {n}: missing numeric field \"status\""))?;
        if !(100.0..=599.0).contains(&status) || status.fract() != 0.0 {
            return Err(format!("line {n}: status {status} is not an HTTP status"));
        }
        let total = event
            .get("total_us")
            .and_then(JsonValue::as_number)
            .ok_or(format!("line {n}: missing numeric field \"total_us\""))?;
        if !total.is_finite() || total < 0.0 {
            return Err(format!("line {n}: total_us = {total} is not a duration"));
        }
        let JsonValue::Object(stages) = event
            .get("stages")
            .ok_or(format!("line {n}: missing object field \"stages\""))?
        else {
            return Err(format!("line {n}: \"stages\" is not an object"));
        };
        for (stage, span) in stages {
            let us = span
                .as_number()
                .ok_or(format!("line {n}: stage '{stage}' span is not a number"))?;
            if !us.is_finite() || us < 0.0 {
                return Err(format!(
                    "line {n}: stage '{stage}' span {us} is not a duration"
                ));
            }
        }
        events += 1;
    }
    if events == 0 {
        return Err("trace log contains no events".into());
    }
    Ok(events)
}

/// A JSONL trace log is recognised by its first line: a complete JSON
/// object carrying a `"trace"` field. (Pretty-printed artifacts never
/// parse line-wise, so they fall through to the JSON paths.)
fn looks_like_trace_log(doc: &str) -> bool {
    doc.lines()
        .find(|line| !line.is_empty())
        .and_then(|line| parse(line).ok())
        .is_some_and(|event| event.get("trace").is_some())
}

fn validate(doc: &str) -> Result<usize, String> {
    if doc.trim_start().starts_with('#') {
        return validate_exposition(doc);
    }
    if looks_like_trace_log(doc) {
        return validate_trace_log(doc);
    }
    let value = parse(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    if value.get("tool").and_then(JsonValue::as_str) == Some("pvlint") {
        return validate_pvlint(&value);
    }
    let items = value.as_array().ok_or("top-level value must be an array")?;
    if items.is_empty() {
        return Err("array must contain at least one record".into());
    }
    for (i, item) in items.iter().enumerate() {
        if !matches!(item, JsonValue::Object(_)) {
            return Err(format!("record {i} is not an object"));
        }
        // Shared core of every artifact variant.
        for key in ["bench", "scale", "name"] {
            item.get(key)
                .and_then(JsonValue::as_str)
                .filter(|s| !s.is_empty())
                .ok_or(format!("record {i}: missing or empty string field {key:?}"))?;
        }
        // Variant fields: evaluator-throughput vs server-loadgen vs
        // portfolio records.
        if item.get("ns_per_eval").is_some() {
            for key in ["ns_per_eval", "speedup_vs_cold"] {
                check_number(item, i, key)?;
            }
            // Lane-kernel rows assert a regression gate, not just a
            // schema: the lane shape must never lose to the scalar
            // reference it replaced.
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .expect("checked just above");
            if name.starts_with("kernel_") {
                let speedup = item
                    .get("speedup_vs_cold")
                    .and_then(JsonValue::as_number)
                    .expect("checked just above");
                if speedup < 1.0 {
                    return Err(format!(
                        "record {i}: {name} speedup_vs_cold = {speedup} — the lane \
                         kernel regressed below its scalar reference"
                    ));
                }
            }
        } else if item.get("rps").is_some() {
            for key in ["requests", "rps", "p50_ms", "p99_ms", "cache_hit_rate"] {
                check_number(item, i, key)?;
            }
            let rate = item
                .get("cache_hit_rate")
                .and_then(JsonValue::as_number)
                .expect("checked just above");
            if rate > 1.0 {
                return Err(format!("record {i}: cache_hit_rate {rate} exceeds 1"));
            }
            // Restart-recovery rows (written by `loadgen --restart-recovery`)
            // additionally report how much of the post-restart traffic the
            // snapshot store absorbed. The hydrated row acts as a gate, not
            // just a schema: a restart that hydrated nothing means the store
            // silently stopped working.
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .expect("checked just above");
            if name.starts_with("restart_") {
                check_number(item, i, "store_hit_rate")?;
                let store_rate = item
                    .get("store_hit_rate")
                    .and_then(JsonValue::as_number)
                    .expect("checked just above");
                if store_rate > 1.0 {
                    return Err(format!("record {i}: store_hit_rate {store_rate} exceeds 1"));
                }
                if name == "restart_hydrated" && store_rate <= 0.0 {
                    return Err(format!(
                        "record {i}: restart_hydrated store_hit_rate = {store_rate} — the \
                         snapshot store served nothing after the restart"
                    ));
                }
            }
            // Router rows (written by `loadgen --router`) must identify
            // their shard count and the host's core count — the scaling
            // gate below is only meaningful when shards could actually
            // run in parallel.
            if name.starts_with("shards_") {
                for key in ["shards", "cpus"] {
                    check_number(item, i, key)?;
                    let x = item
                        .get(key)
                        .and_then(JsonValue::as_number)
                        .expect("checked just above");
                    if x < 1.0 || x.fract() != 0.0 {
                        return Err(format!("record {i}: {key} = {x} is not a count"));
                    }
                }
            }
        } else if item.get("greedy_wh").is_some() {
            for key in [
                "latitude_deg",
                "width_cells",
                "depth_cells",
                "ng",
                "series",
                "strings",
                "greedy_wh",
                "anneal_wh",
                "anneal_gain_percent",
                "wall_ms",
            ] {
                check_number(item, i, key)?;
            }
            // Optional pair: present together or not at all, both sane
            // (the exhaustive optimum bounds greedy, so the gap is ≥ 0).
            match (item.get("exact_wh"), item.get("exact_gap_percent")) {
                (None, None) => {}
                (Some(_), Some(_)) => {
                    check_number(item, i, "exact_wh")?;
                    check_number(item, i, "exact_gap_percent")?;
                }
                _ => {
                    return Err(format!(
                        "record {i}: exact_wh and exact_gap_percent must appear together"
                    ))
                }
            }
            item.get("archetype")
                .and_then(JsonValue::as_str)
                .filter(|s| !s.is_empty())
                .ok_or(format!(
                    "record {i}: missing or empty string field \"archetype\""
                ))?;
        } else {
            return Err(format!(
                "record {i}: not an evaluator (ns_per_eval), server (rps) \
                 or portfolio (greedy_wh) record"
            ));
        }
    }
    check_shard_scaling(items)?;
    Ok(items.len())
}

/// Cross-record gate for the throughput-vs-shards curve: a 2-shard fleet
/// must beat the single-process warm row by at least 1.3× — but only on
/// hosts with at least 2 CPUs (recorded in the row itself). On a
/// single-core container the extra shard can only time-slice, so the
/// ratio carries no signal and the gate is skipped rather than faked.
fn check_shard_scaling(items: &[JsonValue]) -> Result<(), String> {
    let rps_of = |name: &str| -> Option<f64> {
        items
            .iter()
            .find(|item| item.get("name").and_then(JsonValue::as_str) == Some(name))
            .and_then(|item| item.get("rps").and_then(JsonValue::as_number))
    };
    let cpus = items
        .iter()
        .find(|item| item.get("name").and_then(JsonValue::as_str) == Some("shards_2"))
        .and_then(|item| item.get("cpus").and_then(JsonValue::as_number));
    let (Some(sharded), Some(baseline), Some(cpus)) =
        (rps_of("shards_2"), rps_of("warm_mix"), cpus)
    else {
        return Ok(()); // no curve in this artifact, or no single-process baseline
    };
    if cpus < 2.0 {
        println!(
            "note: shards_2 scaling gate skipped — measured on {cpus} cpu(s), \
             sharding cannot parallelize there"
        );
        return Ok(());
    }
    let ratio = sharded / baseline.max(1e-9);
    if ratio < 1.3 {
        return Err(format!(
            "shards_2 throughput {sharded} req/s is only {ratio:.2}x the warm_mix \
             baseline {baseline} req/s on a {cpus}-cpu host (gate: >= 1.3x)"
        ));
    }
    Ok(())
}

fn check_file(path: &std::path::Path) -> Result<(), ()> {
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!(
                "Error: cannot read {} ({e}); run diag --timings, \
                 pvplan suite or loadgen first",
                path.display()
            );
            return Err(());
        }
    };
    match validate(&doc) {
        Ok(n) => {
            println!("{}: {n} record(s), schema ok", path.display());
            Ok(())
        }
        Err(e) => {
            eprintln!("Error: {} is malformed: {e}", path.display());
            Err(())
        }
    }
}

fn main() {
    let paths: Vec<std::path::PathBuf> = {
        let args: Vec<_> = std::env::args()
            .skip(1)
            .map(std::path::PathBuf::from)
            .collect();
        if args.is_empty() {
            vec![pv_bench::EVALUATOR_JSON.into()]
        } else {
            args
        }
    };
    // Check (and report on) every artifact before deciding the exit code —
    // a broken first file must not mask diagnostics for the second.
    let results: Vec<_> = paths.iter().map(|p| check_file(p)).collect();
    if results.iter().any(Result::is_err) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::validate;

    const GOOD: &str = r#"[{"bench": "b", "scale": "s", "name": "n",
        "ns_per_eval": 12.5, "speedup_vs_cold": 1.0}]"#;

    const GOOD_PORTFOLIO: &str = r#"[{"bench": "portfolio:smoke", "scale": "s",
        "name": "s000-flat-lat27", "archetype": "flat", "latitude_deg": 27.0,
        "width_cells": 60, "depth_cells": 30, "ng": 1500,
        "series": 2, "strings": 2, "greedy_wh": 1234.5, "anneal_wh": 1250.0,
        "anneal_gain_percent": 1.25, "exact_wh": 1260.0,
        "exact_gap_percent": 2.02, "wall_ms": 17.3}]"#;

    const GOOD_SERVER: &str = r#"[{"bench": "server_loadgen",
        "scale": "8 sites, 4 clients, seed 2018, smoke clock",
        "name": "warm_mix", "requests": 200, "rps": 312.5,
        "p50_ms": 2.1, "p99_ms": 9.8, "cache_hit_rate": 0.96}]"#;

    #[test]
    fn accepts_the_evaluator_writer_schema() {
        assert_eq!(validate(GOOD), Ok(1));
    }

    const GOOD_KERNEL: &str = r#"[{"bench": "b", "scale": "s",
        "name": "kernel_irradiance_census",
        "ns_per_eval": 52000.0, "speedup_vs_cold": 8.4}]"#;

    #[test]
    fn kernel_rows_must_not_regress_below_their_scalar_reference() {
        assert_eq!(validate(GOOD_KERNEL), Ok(1));
        // Exactly 1.0 (break-even) passes; anything below fails.
        let even = GOOD_KERNEL.replace("8.4", "1.0");
        assert_eq!(validate(&even), Ok(1));
        let regressed = GOOD_KERNEL.replace("8.4", "0.93");
        let err = validate(&regressed).unwrap_err();
        assert!(err.contains("kernel_irradiance_census"), "{err}");
        assert!(err.contains("regressed"), "{err}");
        // Non-kernel rows keep the old schema-only rule: a sub-1
        // speedup is sane there (cold rung is 1.0 by definition).
        let cold = GOOD.replace("1.0", "0.5");
        assert_eq!(validate(&cold), Ok(1));
    }

    #[test]
    fn accepts_the_server_loadgen_schema() {
        assert_eq!(validate(GOOD_SERVER), Ok(1));
        // A hit rate is a rate: > 1 is a broken measurement.
        let bad = GOOD_SERVER.replace("0.96", "1.5");
        assert!(validate(&bad).unwrap_err().contains("cache_hit_rate"));
        let missing = GOOD_SERVER.replace(r#""p99_ms": 9.8,"#, "");
        assert!(validate(&missing).is_err());
    }

    const GOOD_RESTART: &str = r#"[{"bench": "server_loadgen",
        "scale": "2 sites, 2 clients, seed 2018, smoke clock",
        "name": "restart_hydrated", "requests": 2, "rps": 205.0,
        "p50_ms": 3.0, "p99_ms": 6.7, "cache_hit_rate": 1.0,
        "store_hit_rate": 1.0}]"#;

    #[test]
    fn restart_rows_must_carry_a_working_store_hit_rate() {
        assert_eq!(validate(GOOD_RESTART), Ok(1));
        // The cold restart row legitimately has a zero store rate.
        let cold = GOOD_RESTART
            .replace("restart_hydrated", "restart_cold")
            .replace(r#""store_hit_rate": 1.0"#, r#""store_hit_rate": 0.0"#);
        assert_eq!(validate(&cold), Ok(1));
        // Restart rows without the field fail the schema...
        let missing = GOOD_RESTART.replace(
            r#",
        "store_hit_rate": 1.0"#,
            "",
        );
        let err = validate(&missing).unwrap_err();
        assert!(err.contains("store_hit_rate"), "{err}");
        // ...an over-1 rate is a broken measurement...
        let over = GOOD_RESTART.replace(r#""store_hit_rate": 1.0"#, r#""store_hit_rate": 1.5"#);
        assert!(validate(&over).unwrap_err().contains("store_hit_rate"));
        // ...and a hydrated restart that served nothing from the store
        // is a gate failure, not a valid measurement.
        let dead = GOOD_RESTART.replace(r#""store_hit_rate": 1.0"#, r#""store_hit_rate": 0.0"#);
        let err = validate(&dead).unwrap_err();
        assert!(err.contains("served nothing"), "{err}");
        // Non-restart rows stay exempt: the plain schema has no store field.
        assert_eq!(validate(GOOD_SERVER), Ok(1));
    }

    const GOOD_SHARDS: &str = r#"[{"bench": "server_loadgen",
        "scale": "8 sites, 4 clients, seed 2018, smoke clock",
        "name": "warm_mix", "requests": 200, "rps": 100.0,
        "p50_ms": 2.1, "p99_ms": 9.8, "cache_hit_rate": 0.96},
        {"bench": "server_loadgen",
        "scale": "8 sites, 4 clients, seed 2018, smoke clock",
        "name": "shards_2", "requests": 200, "rps": 150.0,
        "p50_ms": 2.4, "p99_ms": 10.1, "cache_hit_rate": 0.96,
        "shards": 2, "cpus": 4}]"#;

    #[test]
    fn shard_rows_must_carry_shard_and_cpu_counts() {
        assert_eq!(validate(GOOD_SHARDS), Ok(2));
        let missing = GOOD_SHARDS.replace(r#""shards": 2, "cpus": 4"#, r#""shards": 2"#);
        assert!(validate(&missing).unwrap_err().contains("cpus"));
        let fractional = GOOD_SHARDS.replace(r#""shards": 2"#, r#""shards": 2.5"#);
        assert!(validate(&fractional).unwrap_err().contains("not a count"));
    }

    #[test]
    fn two_shard_scaling_gate_fires_only_on_multicore_hosts() {
        // 1.5x on a 4-cpu host: passes the 1.3x gate.
        assert_eq!(validate(GOOD_SHARDS), Ok(2));
        // 1.1x on a 4-cpu host: the fleet failed to scale — gate fires.
        let flat = GOOD_SHARDS.replace(r#""rps": 150.0"#, r#""rps": 110.0"#);
        let err = validate(&flat).unwrap_err();
        assert!(err.contains("1.3x"), "{err}");
        // The same flat curve measured on 1 cpu carries no signal: the
        // gate is skipped (schema still enforced), not faked.
        let single = flat.replace(r#""cpus": 4"#, r#""cpus": 1"#);
        assert_eq!(validate(&single), Ok(2));
        // No warm_mix baseline in the artifact: nothing to compare.
        let no_baseline = GOOD_SHARDS.replace(r#""name": "warm_mix""#, r#""name": "other""#);
        assert_eq!(validate(&no_baseline), Ok(2));
    }

    #[test]
    fn accepts_the_portfolio_writer_schema() {
        assert_eq!(validate(GOOD_PORTFOLIO), Ok(1));
        // The exact pair is optional — but only as a pair.
        let no_exact = GOOD_PORTFOLIO
            .replace(r#""exact_wh": 1260.0,"#, "")
            .replace(r#""exact_gap_percent": 2.02,"#, "");
        assert_eq!(validate(&no_exact), Ok(1));
        let half_pair = GOOD_PORTFOLIO.replace(r#""exact_wh": 1260.0,"#, "");
        assert!(validate(&half_pair).is_err());
    }

    #[test]
    fn accepts_a_real_rendered_portfolio_document() {
        use pv_bench::portfolio::{render_portfolio_json, PortfolioRecord};
        let record = PortfolioRecord {
            scenario: "s001-leanto-lat30".into(),
            archetype: "leanto".into(),
            latitude_deg: 30.2,
            dims: (70, 33),
            ng: 2000,
            series: 4,
            strings: 2,
            greedy_wh: 5000.0,
            anneal_wh: 5010.0,
            exact_wh: None,
            wall_ms: 12.0,
        };
        let doc = render_portfolio_json("smoke", "2 days @ 120 min", &[record]);
        assert_eq!(validate(&doc), Ok(1));
    }

    const GOOD_PVLINT: &str = r#"{"tool": "pvlint", "version": 1,
        "files_scanned": 98, "suppressed": 5, "findings": [
        {"rule": "D01", "severity": "deny", "file": "crates/gis/src/x.rs",
         "line": 12, "message": "hash collections are unordered",
         "excerpt": "use std::collections::HashMap;"}]}"#;

    #[test]
    fn accepts_the_pvlint_artifact_schema() {
        assert_eq!(validate(GOOD_PVLINT), Ok(1));
        // A clean tree writes an empty findings array — that is valid.
        let clean = GOOD_PVLINT.replace(
            r#""findings": [
        {"rule": "D01", "severity": "deny", "file": "crates/gis/src/x.rs",
         "line": 12, "message": "hash collections are unordered",
         "excerpt": "use std::collections::HashMap;"}]"#,
            r#""findings": []"#,
        );
        assert_eq!(validate(&clean), Ok(0));
    }

    #[test]
    fn rejects_malformed_pvlint_artifacts() {
        for (doc, why) in [
            (
                GOOD_PVLINT.replace(r#""files_scanned": 98"#, r#""files_scanned": 0"#),
                "zero files scanned",
            ),
            (
                GOOD_PVLINT.replace(r#""line": 12"#, r#""line": 0"#),
                "0-based line",
            ),
            (
                GOOD_PVLINT.replace(r#""rule": "D01""#, r#""rule": """#),
                "empty rule",
            ),
            (
                GOOD_PVLINT.replace(r#""suppressed": 5,"#, ""),
                "missing suppressed counter",
            ),
            (
                r#"{"tool": "pvlint", "version": 1, "files_scanned": 9, "suppressed": 0}"#
                    .to_string(),
                "missing findings array",
            ),
        ] {
            assert!(validate(&doc).is_err(), "accepted {why}: {doc}");
        }
    }

    const GOOD_EXPOSITION: &str = "# HELP pv_requests_total Requests routed, any endpoint.\n\
        # TYPE pv_requests_total counter\n\
        pv_requests_total 50\n\
        # HELP pv_place_ok_total Successful /v1/place solves.\n\
        # TYPE pv_place_ok_total counter\n\
        pv_place_ok_total 42\n\
        # HELP pv_errors_total Requests answered with a 4xx/5xx.\n\
        # TYPE pv_errors_total counter\n\
        pv_errors_total 0\n\
        # HELP pv_store_writes_total Snapshots committed to disk.\n\
        # TYPE pv_store_writes_total counter\n\
        pv_store_writes_total 3\n\
        # HELP pv_cache_entries Sites in the warm cache.\n\
        # TYPE pv_cache_entries gauge\n\
        pv_cache_entries 5\n\
        # HELP pv_place_latency_us End-to-end /v1/place latency, microseconds.\n\
        # TYPE pv_place_latency_us histogram\n\
        pv_place_latency_us_bucket{le=\"64\"} 1\n\
        pv_place_latency_us_bucket{le=\"+Inf\"} 42\n\
        pv_place_latency_us_sum 90000\n\
        pv_place_latency_us_count 42\n";

    #[test]
    fn accepts_a_real_metrics_scrape() {
        assert_eq!(validate(GOOD_EXPOSITION), Ok(9));
        // Histogram series with labels resolve to their family's TYPE.
        let stage = format!(
            "{GOOD_EXPOSITION}# TYPE pv_stage_us histogram\n\
             pv_stage_us_bucket{{stage=\"solve\",le=\"+Inf\"}} 3\n"
        );
        assert_eq!(validate(&stage), Ok(10));
    }

    #[test]
    fn rejects_malformed_expositions() {
        for (doc, why) in [
            (
                GOOD_EXPOSITION.replace("# TYPE pv_requests_total counter\n", ""),
                "sample without a TYPE declaration",
            ),
            (
                GOOD_EXPOSITION.replace("pv_place_ok_total 42", "pv_place_ok_total fast"),
                "non-numeric value",
            ),
            (
                GOOD_EXPOSITION.replace("pv_errors_total 0", "pv_errors_total NaN"),
                "non-finite value",
            ),
            (
                GOOD_EXPOSITION.replace("counter\n", "summary\n"),
                "unknown metric type",
            ),
            (
                GOOD_EXPOSITION.replace(
                    "# TYPE pv_place_latency_us histogram",
                    "# NOTE freeform commentary",
                ),
                "comment that is neither HELP nor TYPE",
            ),
            (
                "# HELP x y\n# TYPE x counter\nx 1\n".to_string(),
                "missing the required serving families",
            ),
            (
                GOOD_EXPOSITION.replace("pv_store_writes_total", "pv_store_other_total"),
                "missing the store write counter",
            ),
            (
                GOOD_EXPOSITION.replace("pv_cache_entries", "pv_cache_other"),
                "missing the cache entries gauge",
            ),
        ] {
            assert!(validate(&doc).is_err(), "accepted {why}: {doc}");
        }
    }

    const GOOD_TRACE_LOG: &str = concat!(
        "{\"trace\": \"00f1d2c3b4a59687\", \"target\": \"/v1/place\", \"status\": 200, ",
        "\"total_us\": 5200, \"stages\": {\"extract\": 4100, \"solve\": 900}}\n",
        "{\"trace\": \"deadbeef00000001\", \"target\": \"/v1/stats\", \"status\": 200, ",
        "\"total_us\": 40, \"stages\": {}}\n",
    );

    #[test]
    fn accepts_a_trace_log_and_rejects_broken_events() {
        assert_eq!(validate(GOOD_TRACE_LOG), Ok(2));
        for (doc, why) in [
            (
                GOOD_TRACE_LOG.replace("00f1d2c3b4a59687", "xyz"),
                "short non-hex trace id",
            ),
            (
                GOOD_TRACE_LOG.replace("\"status\": 200", "\"status\": 999"),
                "out-of-range status",
            ),
            (
                GOOD_TRACE_LOG.replace("\"total_us\": 5200, ", ""),
                "missing total_us",
            ),
            (
                GOOD_TRACE_LOG.replace("\"solve\": 900", "\"solve\": -1"),
                "negative span",
            ),
            (
                GOOD_TRACE_LOG.replace("\"target\": \"/v1/place\"", "\"target\": \"\""),
                "empty target",
            ),
        ] {
            assert!(validate(&doc).is_err(), "accepted {why}: {doc}");
        }
    }

    #[test]
    fn rejects_structural_violations() {
        for (doc, why) in [
            ("{}", "not an array"),
            ("[]", "empty"),
            ("[1]", "non-object record"),
            (
                r#"[{"bench": "b", "scale": "s", "ns_per_eval": 1, "speedup_vs_cold": 1}]"#,
                "missing name",
            ),
            (
                r#"[{"bench": "b", "scale": "s", "name": "", "ns_per_eval": 1, "speedup_vs_cold": 1}]"#,
                "empty name",
            ),
            (
                r#"[{"bench": "b", "scale": "s", "name": "n", "ns_per_eval": "fast", "speedup_vs_cold": 1}]"#,
                "string number",
            ),
            (
                r#"[{"bench": "b", "scale": "s", "name": "n", "ns_per_eval": -1, "speedup_vs_cold": 1}]"#,
                "negative",
            ),
            (
                r#"[{"bench": "b", "scale": "s", "name": "n"}]"#,
                "no variant fields",
            ),
            (
                r#"[{"bench": "b", "scale": "s", "name": "n", "greedy_wh": 1.0}]"#,
                "portfolio record missing fields",
            ),
            ("not json", "garbage"),
        ] {
            assert!(validate(doc).is_err(), "accepted {why}: {doc}");
        }
    }
}
