//! `pvplan` — command-line PV floorplanner.
//!
//! Describes a rectangular roof from flags, runs both the traditional and
//! the proposed placement over a synthetic weather year, and prints the
//! placements with their yearly energies.
//!
//! ```text
//! pvplan --width 12 --depth 5 --tilt 26 --azimuth 195 \
//!        --series 4 --strings 2 [--days 365] [--step 60] [--seed 42]
//!        [--threads N] [--portrait] [--chimney X,Y,H]... [--hvac X,Y,H]...
//! pvplan suite [--preset smoke|paper3|diverse64|stress256] [--seed S]
//!        [--threads N] [--full] [--out PATH]
//! pvplan serve [--port P] [--threads N] [--cache-mb MB]
//!        [--days D] [--step MIN] [--profile standard|smoke|tiny]
//!        [--store-dir PATH] [--port-file PATH] [--watch-stdin]
//! pvplan route --shards N [--port P] [--threads N] [--cache-mb MB]
//!        [--days D] [--step MIN] [--profile standard|smoke|tiny]
//!        [--store-dir PATH] [--port-file PATH] [--watch-stdin]
//! pvplan extract --store-dir PATH [--sites N] [--seed S]
//!        [--days D] [--step MIN]
//! ```
//!
//! `pvplan suite` runs the scenario-corpus portfolio: every site of a
//! preset through extraction, greedy, anneal and (where feasible) the
//! exhaustive optimum, fanned over the parallel runtime, writing the
//! machine-readable `BENCH_portfolio.json`.
//!
//! `pvplan serve` starts the placement service (`pv_server`): POST a
//! scenario spec to `/v1/place` and get the placement + energy report as
//! JSON; repeat requests for a known site answer from the warm per-site
//! cache (`/v1/stats` shows hits, queue depth and latency percentiles).
//! With `--store-dir` the service hydrates its cache from the snapshot
//! store on start and persists cold extractions behind responses, so a
//! restart answers known sites warm; damaged snapshots are quarantined
//! and re-extracted, never served.
//!
//! `pvplan route` scales the service out horizontally: it spawns and
//! supervises `--shards` worker processes (each a `pvplan serve` with its
//! own snapshot-store partition), consistent-hashes every `/v1/place`
//! body onto one worker, and merges `/v1/stats` across the fleet. A
//! crashed worker is respawned and rehydrates its partition from disk;
//! responses are byte-identical at any shard count.
//!
//! `pvplan extract` pre-warms a snapshot store offline: it solves the
//! first `--sites` corpus scenarios at the serving clock and commits each
//! site's extraction (dataset, suitability map, warm trace memo) as a
//! crash-safe snapshot a later `serve --store-dir` can hydrate.
//!
//! `--threads N` (or the `PV_THREADS` environment variable) sets the
//! worker count for solar extraction and energy evaluation; the default is
//! the machine's parallelism. Results are identical for every setting.

use pv_bench::portfolio::{drive, PortfolioOptions};
use pvfloorplan::floorplan::{greedy_placement_with_map, render, traditional_placement_with_map};
use pvfloorplan::gis::synth::{CorpusPreset, CORPUS_SEED};
use pvfloorplan::prelude::*;
use pvfloorplan::server::{PlacementService, Server, ServiceConfig};
use std::sync::Arc;

/// The `--help` text, pinned by a unit test so the documented environment
/// variable and every subcommand stay in sync with the implementation.
const HELP: &str = "\
pvplan — GIS-based optimal PV panel floorplanning

USAGE:
  pvplan --width M --depth M [--tilt DEG] [--azimuth DEG]
         [--series N] [--strings N] [--days D] [--step MIN] [--seed S]
         [--threads N] [--portrait] [--chimney X,Y,H]... [--hvac X,Y,H]...
  pvplan suite [--preset smoke|paper3|diverse64|stress256] [--seed S]
         [--threads N] [--full] [--out PATH]
  pvplan serve [--port P] [--threads N] [--cache-mb MB]
         [--days D] [--step MIN] [--profile standard|smoke|tiny]
         [--store-dir PATH] [--port-file PATH] [--trace-log PATH]
         [--watch-stdin]
  pvplan route --shards N [--port P] [--threads N] [--cache-mb MB]
         [--days D] [--step MIN] [--profile standard|smoke|tiny]
         [--store-dir PATH] [--port-file PATH] [--trace-log PATH]
         [--watch-stdin]
  pvplan extract --store-dir PATH [--sites N] [--seed S]
         [--days D] [--step MIN]

The `suite` subcommand fans a scenario-corpus preset across the parallel
runtime (greedy + anneal + exact-where-feasible per site) and writes
BENCH_portfolio.json.

The `serve` subcommand starts the HTTP placement service on 127.0.0.1
(POST /v1/place, GET /v1/healthz, GET /v1/stats, GET /v1/metrics — the
last in Prometheus exposition text). --cache-mb bounds the warm per-site
cache; place responses are bit-identical for every --threads setting.
--profile picks the base serving configuration (clock, horizon, cache)
that --days/--step/--cache-mb then override. --store-dir PATH hydrates
the cache from a snapshot store on start and persists cold extractions
behind responses; corrupt snapshots are quarantined and the site
re-extracted. --trace-log PATH appends one JSONL event per request
(trace id, status, per-stage span timings), written off the request
path through a lossy bounded ring — observability never blocks or
changes a response byte. --port-file PATH writes the bound address
(useful with --port 0); --watch-stdin drains and exits cleanly on stdin
EOF, so a supervising process tears the server down by closing a pipe.

The `route` subcommand starts a shard router on the same endpoints: it
spawns and supervises --shards worker processes (each a `pvplan serve`
with its own snapshot-store partition under --store-dir), consistent-
hashes each /v1/place body onto one worker, retries once behind a health
probe when a shard is down, and merges /v1/stats and /v1/metrics across
the fleet (histograms merge bucket-wise, so fleet quantiles are exact).
With --trace-log PATH the router logs to PATH and each worker to
PATH.shardK, sharing per-request trace ids. A crashed worker is
respawned and rehydrates its partition; response bodies are
byte-identical at any shard count.

The `extract` subcommand pre-warms a snapshot store: the first --sites
corpus scenarios (corpus seed --seed) are solved at the serving clock
and committed as crash-safe snapshots for a later `serve --store-dir`.

THREADING:
  --threads N            worker count for extraction/evaluation/portfolio
  PV_THREADS=N           environment fallback when --threads is absent
  (default: the machine's available parallelism; results are bit-identical
  for every setting)
";

struct Args {
    width: f64,
    depth: f64,
    tilt: f64,
    azimuth: f64,
    series: usize,
    strings: usize,
    days: u32,
    step: u32,
    seed: u64,
    threads: Option<usize>,
    portrait: bool,
    chimneys: Vec<(f64, f64, f64)>,
    hvacs: Vec<(f64, f64, f64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        width: 12.0,
        depth: 5.0,
        tilt: 26.0,
        azimuth: 180.0,
        series: 4,
        strings: 2,
        days: 365,
        step: 60,
        seed: 42,
        threads: None,
        portrait: false,
        chimneys: Vec::new(),
        hvacs: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--width" => args.width = value("--width")?.parse().map_err(|e| format!("{e}"))?,
            "--depth" => args.depth = value("--depth")?.parse().map_err(|e| format!("{e}"))?,
            "--tilt" => args.tilt = value("--tilt")?.parse().map_err(|e| format!("{e}"))?,
            "--azimuth" => {
                args.azimuth = value("--azimuth")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--series" => args.series = value("--series")?.parse().map_err(|e| format!("{e}"))?,
            "--strings" => {
                args.strings = value("--strings")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--days" => args.days = value("--days")?.parse().map_err(|e| format!("{e}"))?,
            "--step" => args.step = value("--step")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                let spec = value("--threads")?;
                match pvfloorplan::runtime::parse_threads(&spec) {
                    Some(n) => args.threads = Some(n),
                    None => {
                        return Err(format!(
                            "--threads expects a positive integer, got '{spec}'"
                        ))
                    }
                }
            }
            "--portrait" => args.portrait = true,
            "--chimney" | "--hvac" => {
                let spec = value(&flag)?;
                let parts: Vec<f64> = spec
                    .split(',')
                    .map(|p| p.trim().parse().map_err(|e| format!("{spec}: {e}")))
                    .collect::<Result<_, _>>()?;
                let &[x, y, h] = parts.as_slice() else {
                    return Err(format!("{flag} expects X,Y,H (metres), got '{spec}'"));
                };
                let triple = (x, y, h);
                if flag == "--chimney" {
                    args.chimneys.push(triple);
                } else {
                    args.hvacs.push(triple);
                }
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if !(args.width > 0.0 && args.width.is_finite() && args.depth > 0.0 && args.depth.is_finite()) {
        return Err(format!(
            "--width and --depth must be positive metres, got {} x {}",
            args.width, args.depth
        ));
    }
    if args.days == 0 || args.step == 0 {
        return Err("--days and --step must be positive".to_string());
    }
    if args.days > 365 {
        return Err(format!(
            "--days is capped at one year (365), got {}",
            args.days
        ));
    }
    if !(1440u32).is_multiple_of(args.step) {
        return Err(format!(
            "--step must divide the 1440-minute day evenly, got {}",
            args.step
        ));
    }
    Ok(args)
}

/// Parsed `pvplan suite` flags.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SuiteArgs {
    preset: CorpusPreset,
    seed: u64,
    threads: Option<usize>,
    full: bool,
    out: Option<String>,
    help: bool,
}

/// Parses the `suite` flags (everything after `suite`). Pure — no I/O, no
/// exits — so the error paths are unit-testable.
fn parse_suite_args(args: &[String]) -> Result<SuiteArgs, String> {
    let mut parsed = SuiteArgs {
        preset: CorpusPreset::Smoke,
        seed: CORPUS_SEED,
        threads: None,
        full: false,
        out: None,
        help: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--preset" => {
                let name = value("--preset")?;
                parsed.preset = CorpusPreset::from_name(name)
                    .ok_or_else(|| format!("unknown preset '{name}' (try smoke)"))?;
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                let spec = value("--threads")?;
                parsed.threads =
                    Some(pvfloorplan::runtime::parse_threads(spec).ok_or_else(|| {
                        format!("--threads expects a positive integer, got '{spec}'")
                    })?);
            }
            "--full" => parsed.full = true,
            "--out" => parsed.out = Some(value("--out")?.clone()),
            "--help" | "-h" => parsed.help = true,
            other => return Err(format!("unknown suite flag '{other}' (try --help)")),
        }
    }
    Ok(parsed)
}

/// Runs the `suite` subcommand.
fn run_suite(args: &[String]) -> Result<(), String> {
    let parsed = parse_suite_args(args)?;
    if parsed.help {
        println!("{HELP}");
        return Ok(());
    }
    let runtime = parsed
        .threads
        .map_or_else(Runtime::from_env, Runtime::with_threads);
    let opts = if parsed.full {
        PortfolioOptions::standard(runtime)
    } else {
        PortfolioOptions::smoke(runtime)
    };
    drive(parsed.preset, parsed.seed, &opts, parsed.out.as_deref())
        .map(|_| ())
        .map_err(|e| format!("writing BENCH_portfolio.json: {e}"))
}

/// Parsed `pvplan serve` flags. Clock and cache flags stay `None` when
/// absent so the `--profile` base config supplies their defaults.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ServeArgs {
    port: u16,
    threads: Option<usize>,
    profile: String,
    cache_mb: Option<usize>,
    days: Option<u32>,
    step: Option<u32>,
    store_dir: Option<String>,
    port_file: Option<String>,
    trace_log: Option<String>,
    watch_stdin: bool,
    help: bool,
}

/// The base [`ServiceConfig`] for a `--profile` name.
fn base_config(profile: &str) -> Result<ServiceConfig, String> {
    match profile {
        "standard" => Ok(ServiceConfig::standard()),
        "smoke" => Ok(ServiceConfig::smoke()),
        "tiny" => Ok(ServiceConfig::tiny()),
        other => Err(format!(
            "--profile expects standard|smoke|tiny, got '{other}'"
        )),
    }
}

/// Resolves a profile plus optional overrides into the serving config.
fn resolve_config(
    profile: &str,
    days: Option<u32>,
    step: Option<u32>,
    cache_mb: Option<usize>,
) -> Result<ServiceConfig, String> {
    let base = base_config(profile)?;
    let config = ServiceConfig {
        days: days.unwrap_or(base.days),
        step_minutes: step.unwrap_or(base.step_minutes),
        ..base
    };
    let cache_mb = cache_mb.unwrap_or(config.cache_bytes >> 20);
    Ok(config.with_cache_bytes(cache_mb << 20))
}

/// Parses the `serve` flags (everything after `serve`). Pure, like
/// [`parse_suite_args`].
fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut parsed = ServeArgs {
        port: 8080,
        threads: None,
        profile: "standard".to_string(),
        cache_mb: None,
        days: None,
        step: None,
        store_dir: None,
        port_file: None,
        trace_log: None,
        watch_stdin: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--port" => {
                let spec = value("--port")?;
                parsed.port = spec
                    .parse()
                    .map_err(|_| format!("--port expects 0..=65535, got '{spec}'"))?;
            }
            "--threads" => {
                let spec = value("--threads")?;
                parsed.threads =
                    Some(pvfloorplan::runtime::parse_threads(spec).ok_or_else(|| {
                        format!("--threads expects a positive integer, got '{spec}'")
                    })?);
            }
            "--profile" => {
                let name = value("--profile")?;
                base_config(name)?; // validate early, fail with the flag name
                parsed.profile = name.clone();
            }
            "--trace-log" => parsed.trace_log = Some(value("--trace-log")?.clone()),
            "--cache-mb" => {
                let spec = value("--cache-mb")?;
                // The upper bound keeps `cache_mb << 20` from silently
                // overflowing usize into a tiny (or zero) byte budget.
                parsed.cache_mb = match spec.parse() {
                    Ok(mb) if mb > 0 && mb <= usize::MAX >> 20 => Some(mb),
                    Ok(mb) if mb > 0 => {
                        return Err(format!("--cache-mb is out of range, got {mb}"));
                    }
                    _ => {
                        return Err(format!(
                            "--cache-mb expects a positive integer, got '{spec}'"
                        ))
                    }
                };
            }
            "--days" => {
                parsed.days = Some(
                    value("--days")?
                        .parse()
                        .map_err(|e| format!("--days: {e}"))?,
                );
            }
            "--step" => {
                parsed.step = Some(
                    value("--step")?
                        .parse()
                        .map_err(|e| format!("--step: {e}"))?,
                );
            }
            "--store-dir" => parsed.store_dir = Some(value("--store-dir")?.clone()),
            "--port-file" => parsed.port_file = Some(value("--port-file")?.clone()),
            "--watch-stdin" => parsed.watch_stdin = true,
            "--help" | "-h" => parsed.help = true,
            other => return Err(format!("unknown serve flag '{other}' (try --help)")),
        }
    }
    validate_clock_overrides(parsed.days, parsed.step)?;
    Ok(parsed)
}

/// Shared `--days`/`--step` validation for the serving subcommands.
fn validate_clock_overrides(days: Option<u32>, step: Option<u32>) -> Result<(), String> {
    if let Some(days) = days {
        if days == 0 || days > 365 {
            return Err(format!("--days must be in 1..=365, got {days}"));
        }
    }
    if let Some(step) = step {
        if step == 0 || !1440u32.is_multiple_of(step) {
            return Err(format!(
                "--step must divide the 1440-minute day evenly, got {step}"
            ));
        }
    }
    Ok(())
}

/// Blocks until stdin reaches EOF. With `--watch-stdin` the supervising
/// process (the shard router, a test harness, CI) holds a pipe to our
/// stdin: when it exits — even on SIGKILL, where it cannot signal us —
/// the pipe closes and we shut down cleanly instead of leaking.
fn wait_for_stdin_eof() {
    use std::io::Read;
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
}

/// Runs the `serve` subcommand: binds the placement service and blocks —
/// until stdin EOF with `--watch-stdin` (then drains and exits cleanly),
/// otherwise until the process is killed.
fn run_serve(args: &[String]) -> Result<(), String> {
    let parsed = parse_serve_args(args)?;
    if parsed.help {
        println!("{HELP}");
        return Ok(());
    }
    let config = resolve_config(&parsed.profile, parsed.days, parsed.step, parsed.cache_mb)?;
    let (cache_mb, days, step) = (config.cache_bytes >> 20, config.days, config.step_minutes);
    let runtime = parsed
        .threads
        .map_or_else(Runtime::from_env, Runtime::with_threads);
    let mut service = PlacementService::new(config);
    if let Some(dir) = &parsed.store_dir {
        let store = pvfloorplan::store::SiteStore::open(dir)
            .map_err(|e| format!("opening snapshot store '{dir}': {e}"))?;
        service = service.with_store(Arc::new(store));
    }
    if let Some(path) = &parsed.trace_log {
        let log = pvfloorplan::obs::TraceLog::create(std::path::Path::new(path))
            .map_err(|e| format!("creating trace log '{path}': {e}"))?;
        service = service.with_trace_log(Arc::new(log));
    }
    let service = Arc::new(service);
    if let Some(dir) = &parsed.store_dir {
        let seeded = service
            .hydrate_store()
            .map_err(|e| format!("hydrating snapshot store '{dir}': {e}"))?;
        let counters = service.store().map(|s| s.counters());
        println!(
            "snapshot store '{dir}': {seeded} site(s) hydrated, {} quarantined, {} skipped",
            counters.map_or(0, |c| c.quarantined()),
            counters.map_or(0, |c| c.skipped()),
        );
    }
    let server = Server::bind(("127.0.0.1", parsed.port), service, runtime, 64)
        .map_err(|e| format!("binding port {}: {e}", parsed.port))?;
    write_port_file(parsed.port_file.as_deref(), server.local_addr())?;
    println!(
        "serving on http://{} ({} worker(s), {} MiB site cache, {} day(s) @ {} min)",
        server.local_addr(),
        runtime.threads(),
        cache_mb,
        days,
        step
    );
    println!("endpoints: POST /v1/place   GET /v1/healthz   GET /v1/stats   GET /v1/metrics");
    if parsed.watch_stdin {
        wait_for_stdin_eof();
        server.shutdown(); // drain in-flight requests + snapshot writes
        return Ok(());
    }
    loop {
        std::thread::park(); // serve until killed (Ctrl-C)
    }
}

/// Publishes the bound address for supervisors/scripts (`--port 0` makes
/// the kernel pick the port, so it must be discoverable somewhere).
fn write_port_file(path: Option<&str>, addr: std::net::SocketAddr) -> Result<(), String> {
    if let Some(path) = path {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("writing port file '{path}': {e}"))?;
    }
    Ok(())
}

/// Parsed `pvplan route` flags. The clock/cache/profile flags mirror
/// `serve` — they are forwarded to every worker.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RouteArgs {
    shards: usize,
    port: u16,
    threads: Option<usize>,
    profile: String,
    cache_mb: Option<usize>,
    days: Option<u32>,
    step: Option<u32>,
    store_dir: String,
    port_file: Option<String>,
    trace_log: Option<String>,
    watch_stdin: bool,
    help: bool,
}

/// Parses the `route` flags (everything after `route`). Pure, like
/// [`parse_serve_args`].
fn parse_route_args(args: &[String]) -> Result<RouteArgs, String> {
    let mut parsed = RouteArgs {
        shards: 0,
        port: 8080,
        threads: None,
        profile: "standard".to_string(),
        cache_mb: None,
        days: None,
        step: None,
        store_dir: "target/router_store".to_string(),
        port_file: None,
        trace_log: None,
        watch_stdin: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--shards" => {
                parsed.shards = match value("--shards")?.parse() {
                    Ok(n) if (1..=64).contains(&n) => n,
                    _ => return Err("--shards expects an integer in 1..=64".to_string()),
                };
            }
            "--port" => {
                let spec = value("--port")?;
                parsed.port = spec
                    .parse()
                    .map_err(|_| format!("--port expects 0..=65535, got '{spec}'"))?;
            }
            "--threads" => {
                let spec = value("--threads")?;
                parsed.threads =
                    Some(pvfloorplan::runtime::parse_threads(spec).ok_or_else(|| {
                        format!("--threads expects a positive integer, got '{spec}'")
                    })?);
            }
            "--profile" => {
                let name = value("--profile")?;
                base_config(name)?;
                parsed.profile = name.clone();
            }
            "--cache-mb" => {
                parsed.cache_mb = match value("--cache-mb")?.parse() {
                    Ok(mb) if mb > 0 && mb <= usize::MAX >> 20 => Some(mb),
                    _ => return Err("--cache-mb expects a positive integer in range".to_string()),
                };
            }
            "--days" => {
                parsed.days = Some(
                    value("--days")?
                        .parse()
                        .map_err(|e| format!("--days: {e}"))?,
                );
            }
            "--step" => {
                parsed.step = Some(
                    value("--step")?
                        .parse()
                        .map_err(|e| format!("--step: {e}"))?,
                );
            }
            "--store-dir" => parsed.store_dir = value("--store-dir")?.clone(),
            "--port-file" => parsed.port_file = Some(value("--port-file")?.clone()),
            "--trace-log" => parsed.trace_log = Some(value("--trace-log")?.clone()),
            "--watch-stdin" => parsed.watch_stdin = true,
            "--help" | "-h" => parsed.help = true,
            other => return Err(format!("unknown route flag '{other}' (try --help)")),
        }
    }
    validate_clock_overrides(parsed.days, parsed.step)?;
    if !parsed.help && parsed.shards == 0 {
        return Err("route requires --shards N (1..=64)".to_string());
    }
    Ok(parsed)
}

/// Runs the `route` subcommand: spawns the worker fleet behind a
/// consistent-hash router and blocks like `serve` does.
fn run_route(args: &[String]) -> Result<(), String> {
    let parsed = parse_route_args(args)?;
    if parsed.help {
        println!("{HELP}");
        return Ok(());
    }
    let exe = std::env::current_exe()
        .map_err(|e| format!("locating the pvplan executable for workers: {e}"))?;

    let mut worker_args = vec![
        "serve".to_string(),
        "--profile".to_string(),
        parsed.profile.clone(),
    ];
    if let Some(threads) = parsed.threads {
        worker_args.extend(["--threads".to_string(), threads.to_string()]);
    }
    if let Some(cache_mb) = parsed.cache_mb {
        worker_args.extend(["--cache-mb".to_string(), cache_mb.to_string()]);
    }
    if let Some(days) = parsed.days {
        worker_args.extend(["--days".to_string(), days.to_string()]);
    }
    if let Some(step) = parsed.step {
        worker_args.extend(["--step".to_string(), step.to_string()]);
    }
    let mut config = pvfloorplan::server::RouterConfig::new(parsed.shards, exe, &parsed.store_dir);
    config.worker_args = worker_args;
    if let Some(path) = &parsed.trace_log {
        config.trace_log_base = Some(path.into());
    }

    let mut router = pvfloorplan::server::Router::start(config)?;
    if let Some(path) = &parsed.trace_log {
        let log = pvfloorplan::obs::TraceLog::create(std::path::Path::new(path))
            .map_err(|e| format!("creating trace log '{path}': {e}"))?;
        router = router.with_trace_log(Arc::new(log));
    }
    let router = Arc::new(router);
    // The proxy jobs are I/O-bound (blocked on a shard), so the transport
    // pool must cover the fleet's total solve concurrency to saturate it.
    let per_worker = parsed
        .threads
        .unwrap_or_else(|| Runtime::from_env().threads());
    let transport = Runtime::with_threads(parsed.shards * per_worker + 2);
    let server = Server::bind(
        ("127.0.0.1", parsed.port),
        Arc::clone(&router),
        transport,
        64,
    )
    .map_err(|e| format!("binding port {}: {e}", parsed.port))?;
    write_port_file(parsed.port_file.as_deref(), server.local_addr())?;
    println!(
        "routing on http://{} ({} shard(s), profile {}, store root '{}')",
        server.local_addr(),
        parsed.shards,
        parsed.profile,
        parsed.store_dir
    );
    println!("endpoints: POST /v1/place   GET /v1/healthz   GET /v1/stats   GET /v1/metrics");
    if parsed.watch_stdin {
        wait_for_stdin_eof();
        server.shutdown(); // drains, then tears the worker fleet down
        return Ok(());
    }
    loop {
        std::thread::park(); // route until killed (Ctrl-C)
    }
}

/// Parsed `pvplan extract` flags.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ExtractArgs {
    store_dir: Option<String>,
    sites: u32,
    seed: u64,
    days: u32,
    step: u32,
    help: bool,
}

/// Parses the `extract` flags (everything after `extract`). Pure, like
/// [`parse_serve_args`].
fn parse_extract_args(args: &[String]) -> Result<ExtractArgs, String> {
    let defaults = ServiceConfig::standard();
    let mut parsed = ExtractArgs {
        store_dir: None,
        sites: 4,
        seed: CORPUS_SEED,
        days: defaults.days,
        step: defaults.step_minutes,
        help: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--store-dir" => parsed.store_dir = Some(value("--store-dir")?.clone()),
            "--sites" => {
                parsed.sites = match value("--sites")?.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err("--sites expects a positive integer".to_string()),
                };
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--days" => {
                parsed.days = value("--days")?
                    .parse()
                    .map_err(|e| format!("--days: {e}"))?;
            }
            "--step" => {
                parsed.step = value("--step")?
                    .parse()
                    .map_err(|e| format!("--step: {e}"))?;
            }
            "--help" | "-h" => parsed.help = true,
            other => return Err(format!("unknown extract flag '{other}' (try --help)")),
        }
    }
    if parsed.days == 0 || parsed.days > 365 {
        return Err(format!("--days must be in 1..=365, got {}", parsed.days));
    }
    if parsed.step == 0 || !1440u32.is_multiple_of(parsed.step) {
        return Err(format!(
            "--step must divide the 1440-minute day evenly, got {}",
            parsed.step
        ));
    }
    if !parsed.help && parsed.store_dir.is_none() {
        return Err("extract requires --store-dir PATH".to_string());
    }
    Ok(parsed)
}

/// Runs the `extract` subcommand: pre-warms a snapshot store with the
/// first `--sites` corpus scenarios at the serving clock. Prints one
/// `spec <string>` line per site (scripts capture these to POST the same
/// sites at a server later) and a final summary.
fn run_extract(args: &[String]) -> Result<(), String> {
    let parsed = parse_extract_args(args)?;
    if parsed.help {
        println!("{HELP}");
        return Ok(());
    }
    let Some(dir) = &parsed.store_dir else {
        return Err("extract requires --store-dir PATH".to_string());
    };
    // The serving config for these clock flags: the snapshot's extraction
    // horizon must match what `serve` will compute keys with.
    let config = ServiceConfig {
        days: parsed.days,
        step_minutes: parsed.step,
        ..ServiceConfig::standard()
    };
    let store = pvfloorplan::store::SiteStore::open(dir)
        .map_err(|e| format!("opening snapshot store '{dir}': {e}"))?;
    let store = Arc::new(store);
    let service = PlacementService::new(config).with_store(Arc::clone(&store));
    let mut written = 0u32;
    for index in 0..parsed.sites {
        let spec = pvfloorplan::gis::synth::ScenarioSpec::generate(parsed.seed, index);
        let wrote = service
            .prewarm(&spec)
            .map_err(|e| format!("site {index}: {e}"))?;
        written += u32::from(wrote);
        println!("spec {}", spec.to_spec_string());
        eprintln!(
            "site {index}: {}",
            if wrote {
                "snapshot written"
            } else {
                "already stored"
            }
        );
    }
    service.drain_store();
    println!(
        "store '{dir}': {written} snapshot(s) written, {} already present, {} write error(s)",
        parsed.sites - written,
        store.counters().write_errors()
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("Error: {e}");
        std::process::exit(1);
    }
}

/// Dispatches the subcommands; every error path funnels through
/// [`main`]'s `Error:`-prefixed exit-1 convention.
fn run() -> Result<(), String> {
    let cli: Vec<String> = std::env::args().collect();
    let rest = cli.get(2..).unwrap_or_default();
    match cli.get(1).map(String::as_str) {
        Some("suite") => return run_suite(rest),
        Some("serve") => return run_serve(rest),
        Some("route") => return run_route(rest),
        Some("extract") => return run_extract(rest),
        _ => {}
    }
    let args = parse_args()?;

    let mut builder = RoofBuilder::new(Meters::new(args.width), Meters::new(args.depth))
        .tilt(Degrees::new(args.tilt))
        .azimuth(Degrees::new(args.azimuth));
    for (x, y, h) in &args.chimneys {
        builder = builder.obstacle(Obstacle::chimney(
            Meters::new(*x),
            Meters::new(*y),
            Meters::new(0.8),
            Meters::new(0.8),
            Meters::new(*h),
        ));
    }
    for (x, y, h) in &args.hvacs {
        builder = builder.obstacle(Obstacle::hvac_unit(
            Meters::new(*x),
            Meters::new(*y),
            Meters::new(*h),
        ));
    }
    let roof = builder.build();

    let runtime = args
        .threads
        .map_or_else(Runtime::from_env, Runtime::with_threads);
    let clock = SimulationClock::days_at_minutes(args.days, args.step);
    eprintln!(
        "extracting solar data: {} x {} m roof, {} cells ({} valid), {} steps, {} thread(s)...",
        args.width,
        args.depth,
        roof.dims().num_cells(),
        roof.valid().count(),
        clock.num_steps(),
        runtime.threads()
    );
    let data = SolarExtractor::new(Site::turin(), clock)
        .seed(args.seed)
        .runtime(runtime)
        .extract(&roof);

    let topology =
        Topology::new(args.series, args.strings).map_err(|e| format!("bad topology: {e}"))?;
    let mut config = FloorplanConfig::paper(topology).map_err(|e| format!("bad module: {e}"))?;
    if args.portrait {
        config = config.with_portrait_modules();
    }
    let map = SuitabilityMap::compute_with(&data, &config, runtime);
    let evaluator = EnergyEvaluator::new(&config).with_runtime(runtime);

    println!("suitability (bright = better, x = unusable):");
    println!("{}", render::ascii_heatmap(map.scores(), 90));

    match traditional_placement_with_map(&data, &config, &map) {
        Ok(block) => {
            let e = evaluator
                .evaluate(&data, &block)
                .map_err(|e| e.to_string())?;
            println!("traditional compact block: {:.1} kWh", e.energy.as_kwh());
            println!("{}", render::ascii_placement(&block, data.valid(), 90));
        }
        Err(e) => println!("traditional compact block: does not fit ({e})"),
    }

    let plan = greedy_placement_with_map(&data, &config, &map).map_err(|e| e.to_string())?;
    let e = evaluator
        .evaluate(&data, &plan)
        .map_err(|e| e.to_string())?;
    println!(
        "proposed irregular placement: {:.1} kWh (extra wire {:.1} m, \
         wiring loss {:.2}%, mismatch {:.2}%)",
        e.energy.as_kwh(),
        e.extra_wire.as_meters(),
        e.wiring_loss_fraction() * 100.0,
        e.mismatch_fraction() * 100.0
    );
    println!("{}", render::ascii_placement(&plan, data.valid(), 90));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{parse_extract_args, parse_route_args, parse_serve_args, parse_suite_args, HELP};

    /// Every flag the three parsers accept, by subcommand. Adding a flag
    /// to `parse_args`/`parse_suite_args`/`parse_serve_args` without
    /// listing it here (and in `HELP`) fails the pin below.
    const MAIN_FLAGS: &[&str] = &[
        "--width",
        "--depth",
        "--tilt",
        "--azimuth",
        "--series",
        "--strings",
        "--days",
        "--step",
        "--seed",
        "--threads",
        "--portrait",
        "--chimney",
        "--hvac",
    ];
    const SUITE_FLAGS: &[&str] = &["--preset", "--seed", "--threads", "--full", "--out"];
    const SERVE_FLAGS: &[&str] = &[
        "--port",
        "--threads",
        "--cache-mb",
        "--days",
        "--step",
        "--profile",
        "--store-dir",
        "--port-file",
        "--trace-log",
        "--watch-stdin",
    ];
    const ROUTE_FLAGS: &[&str] = &[
        "--shards",
        "--port",
        "--threads",
        "--cache-mb",
        "--days",
        "--step",
        "--profile",
        "--store-dir",
        "--port-file",
        "--trace-log",
        "--watch-stdin",
    ];
    const EXTRACT_FLAGS: &[&str] = &["--store-dir", "--sites", "--seed", "--days", "--step"];

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn help_documents_pv_threads_env_var() {
        assert!(
            HELP.contains(pvfloorplan::runtime::THREADS_ENV),
            "--help must document the {} environment variable",
            pvfloorplan::runtime::THREADS_ENV
        );
        // ... next to the flag that overrides it and the determinism note.
        assert!(HELP.contains("--threads N"));
        assert!(HELP.contains("bit-identical"));
    }

    #[test]
    fn help_documents_every_flag_and_subcommand() {
        for flag in MAIN_FLAGS
            .iter()
            .chain(SUITE_FLAGS)
            .chain(ROUTE_FLAGS)
            .chain(SERVE_FLAGS)
            .chain(EXTRACT_FLAGS)
        {
            assert!(HELP.contains(flag), "--help is missing {flag}");
        }
        assert!(HELP.contains("pvplan suite"));
        assert!(HELP.contains("pvplan serve"));
        assert!(HELP.contains("pvplan route"));
        assert!(HELP.contains("pvplan extract"));
        for preset in pvfloorplan::gis::synth::CorpusPreset::all() {
            assert!(HELP.contains(preset.name()), "missing preset {preset}");
        }
    }

    #[test]
    fn suite_parser_accepts_the_documented_flags() {
        let parsed = parse_suite_args(&strings(&[
            "--preset",
            "diverse64",
            "--seed",
            "7",
            "--threads",
            "3",
            "--full",
            "--out",
            "x.json",
        ]))
        .unwrap();
        assert_eq!(parsed.preset.name(), "diverse64");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.threads, Some(3));
        assert!(parsed.full);
        assert_eq!(parsed.out.as_deref(), Some("x.json"));
        assert!(!parsed.help);
    }

    #[test]
    fn suite_parser_rejects_bad_flags_with_messages_not_panics() {
        for (args, needle) in [
            (vec!["--preset", "bogus"], "unknown preset 'bogus'"),
            (vec!["--preset"], "--preset needs a value"),
            (vec!["--threads", "0"], "--threads expects a positive"),
            (vec!["--threads", "many"], "--threads expects a positive"),
            (vec!["--seed", "nope"], "--seed"),
            (vec!["--frobnicate"], "unknown suite flag"),
        ] {
            let err = parse_suite_args(&strings(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn serve_parser_accepts_the_documented_flags() {
        let parsed = parse_serve_args(&strings(&[
            "--port",
            "0",
            "--threads",
            "2",
            "--cache-mb",
            "64",
            "--days",
            "2",
            "--step",
            "120",
            "--profile",
            "smoke",
            "--store-dir",
            "target/snapshots",
            "--port-file",
            "target/server.port",
            "--trace-log",
            "target/server.trace",
            "--watch-stdin",
        ]))
        .unwrap();
        assert_eq!(parsed.port, 0);
        assert_eq!(parsed.threads, Some(2));
        assert_eq!(parsed.cache_mb, Some(64));
        assert_eq!((parsed.days, parsed.step), (Some(2), Some(120)));
        assert_eq!(parsed.profile, "smoke");
        assert_eq!(parsed.store_dir.as_deref(), Some("target/snapshots"));
        assert_eq!(parsed.port_file.as_deref(), Some("target/server.port"));
        assert_eq!(parsed.trace_log.as_deref(), Some("target/server.trace"));
        assert!(parsed.watch_stdin);
    }

    #[test]
    fn serve_store_dir_defaults_to_none() {
        let parsed = parse_serve_args(&[]).unwrap();
        assert_eq!(parsed.store_dir, None);
        assert_eq!(parsed.port_file, None);
        assert_eq!(parsed.trace_log, None);
        assert!(!parsed.watch_stdin);
        assert_eq!(parsed.profile, "standard");
        // Absent clock/cache flags defer to the profile's defaults.
        assert_eq!(
            (parsed.days, parsed.step, parsed.cache_mb),
            (None, None, None)
        );
    }

    #[test]
    fn profiles_supply_defaults_that_flags_override() {
        let smoke = super::resolve_config("smoke", None, None, None).unwrap();
        let reference = pvfloorplan::server::ServiceConfig::smoke();
        assert_eq!(smoke.days, reference.days);
        assert_eq!(smoke.step_minutes, reference.step_minutes);
        assert_eq!(smoke.cache_bytes, reference.cache_bytes);
        // Explicit flags win over the profile.
        let tuned = super::resolve_config("smoke", Some(1), Some(240), Some(32)).unwrap();
        assert_eq!((tuned.days, tuned.step_minutes), (1, 240));
        assert_eq!(tuned.cache_bytes, 32 << 20);
        // Everything else (horizon, ladder budget) still comes from the base.
        assert_eq!(tuned.horizon_sectors, reference.horizon_sectors);
        assert!(super::resolve_config("huge", None, None, None).is_err());
    }

    #[test]
    fn route_parser_accepts_the_documented_flags() {
        let parsed = parse_route_args(&strings(&[
            "--shards",
            "3",
            "--port",
            "0",
            "--threads",
            "1",
            "--cache-mb",
            "32",
            "--days",
            "2",
            "--step",
            "120",
            "--profile",
            "tiny",
            "--store-dir",
            "target/router",
            "--port-file",
            "target/router.port",
            "--trace-log",
            "target/router.trace",
            "--watch-stdin",
        ]))
        .unwrap();
        assert_eq!(parsed.shards, 3);
        assert_eq!(parsed.port, 0);
        assert_eq!(parsed.threads, Some(1));
        assert_eq!(parsed.cache_mb, Some(32));
        assert_eq!((parsed.days, parsed.step), (Some(2), Some(120)));
        assert_eq!(parsed.profile, "tiny");
        assert_eq!(parsed.store_dir, "target/router");
        assert_eq!(parsed.port_file.as_deref(), Some("target/router.port"));
        assert_eq!(parsed.trace_log.as_deref(), Some("target/router.trace"));
        assert!(parsed.watch_stdin);
    }

    #[test]
    fn route_parser_rejects_bad_flags_with_messages_not_panics() {
        for (args, needle) in [
            (vec![] as Vec<&str>, "route requires --shards"),
            (vec!["--shards", "0"], "--shards expects"),
            (vec!["--shards", "65"], "--shards expects"),
            (vec!["--shards", "lots"], "--shards expects"),
            (vec!["--shards"], "--shards needs a value"),
            (
                vec!["--shards", "2", "--profile", "huge"],
                "--profile expects",
            ),
            (vec!["--shards", "2", "--days", "366"], "--days must be"),
            (vec!["--shards", "2", "--step", "7"], "--step must divide"),
            (vec!["--shards", "2", "--sites", "4"], "unknown route flag"),
        ] {
            let err = parse_route_args(&strings(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        // --help works without --shards (the help text prints instead).
        assert!(parse_route_args(&strings(&["--help"])).unwrap().help);
    }

    #[test]
    fn extract_parser_accepts_the_documented_flags() {
        let parsed = parse_extract_args(&strings(&[
            "--store-dir",
            "target/snapshots",
            "--sites",
            "3",
            "--seed",
            "7",
            "--days",
            "2",
            "--step",
            "120",
        ]))
        .unwrap();
        assert_eq!(parsed.store_dir.as_deref(), Some("target/snapshots"));
        assert_eq!(parsed.sites, 3);
        assert_eq!(parsed.seed, 7);
        assert_eq!((parsed.days, parsed.step), (2, 120));
        assert!(!parsed.help);
    }

    #[test]
    fn extract_parser_rejects_bad_flags_with_messages_not_panics() {
        for (args, needle) in [
            (vec![] as Vec<&str>, "requires --store-dir"),
            (vec!["--store-dir"], "--store-dir needs a value"),
            (vec!["--store-dir", "d", "--sites", "0"], "--sites expects"),
            (vec!["--store-dir", "d", "--sites", "x"], "--sites expects"),
            (vec!["--store-dir", "d", "--days", "366"], "--days must be"),
            (
                vec!["--store-dir", "d", "--step", "7"],
                "--step must divide",
            ),
            (
                vec!["--store-dir", "d", "--threads", "2"],
                "unknown extract flag",
            ),
        ] {
            let err = parse_extract_args(&strings(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        // --help makes --store-dir optional (the help text prints instead).
        assert!(parse_extract_args(&strings(&["--help"])).unwrap().help);
    }

    #[test]
    fn serve_parser_rejects_bad_flags_with_messages_not_panics() {
        for (args, needle) in [
            (vec!["--port", "70000"], "--port expects"),
            (vec!["--port", "x"], "--port expects"),
            (vec!["--threads", "-1"], "--threads expects a positive"),
            (vec!["--cache-mb", "0"], "--cache-mb expects a positive"),
            (vec!["--cache-mb", "lots"], "--cache-mb expects a positive"),
            // 2^44 MiB would shift-overflow into a zero byte budget.
            (
                vec!["--cache-mb", "17592186044416"],
                "--cache-mb is out of range",
            ),
            (vec!["--days", "366"], "--days must be in 1..=365"),
            (vec!["--days", "0"], "--days must be in 1..=365"),
            (vec!["--step", "7"], "--step must divide"),
            (vec!["--step"], "--step needs a value"),
            (vec!["--profile", "mega"], "--profile expects"),
            (vec!["--serve-hard"], "unknown serve flag"),
        ] {
            let err = parse_serve_args(&strings(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
