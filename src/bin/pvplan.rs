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
//! site's extraction (dataset and suitability map) as a crash-safe
//! snapshot a later `serve --store-dir` can hydrate.
//!
//! `--threads N` (or the `PV_THREADS` environment variable) sets the
//! worker count for solar extraction and energy evaluation; the default is
//! the machine's parallelism. Results are identical for every setting.

use pv_bench::cli::{self, Flag, Matches};
use pv_bench::portfolio::drive;
use pvfloorplan::floorplan::{greedy_placement_with_map, render, traditional_placement_with_map};
use pvfloorplan::gis::synth::{check_roof, CorpusPreset, CORPUS_SEED};
use pvfloorplan::prelude::*;
use pvfloorplan::server::{ClockRefusal, PlacementService, Server, ServiceConfig};
use pvfloorplan::units::ClockError;
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

/// The top-level command's flags: the roof, the array and the clock.
const ROOF_FLAGS: &[Flag] = &[
    Flag::value("--width"),
    Flag::value("--depth"),
    Flag::value("--tilt"),
    Flag::value("--azimuth"),
    Flag::value("--series"),
    Flag::value("--strings"),
    Flag::value("--days"),
    Flag::value("--step"),
    Flag::value("--seed"),
    Flag::value("--threads"),
    Flag::switch("--portrait"),
    Flag::repeated("--chimney"),
    Flag::repeated("--hvac"),
];

const SUITE_FLAGS: &[Flag] = &[
    Flag::value("--preset"),
    Flag::value("--seed"),
    Flag::value("--threads"),
    Flag::switch("--full"),
    Flag::value("--out"),
];

/// The flags `serve` and `route` share; `route` forwards the profile,
/// threads, cache and clock ones to every worker.
const SERVING_FLAGS: &[Flag] = &[
    Flag::value("--port"),
    Flag::value("--threads"),
    Flag::value("--cache-mb"),
    Flag::value("--days"),
    Flag::value("--step"),
    Flag::value("--profile"),
    Flag::value("--store-dir"),
    Flag::value("--port-file"),
    Flag::value("--trace-log"),
    Flag::switch("--watch-stdin"),
];

/// What `route` takes beyond [`SERVING_FLAGS`].
const ROUTE_FLAGS: &[Flag] = &[Flag::value("--shards")];

const EXTRACT_FLAGS: &[Flag] = &[
    Flag::value("--store-dir"),
    Flag::value("--sites"),
    Flag::value("--seed"),
    Flag::value("--days"),
    Flag::value("--step"),
];

/// `--threads N`, shared by every subcommand that takes it.
fn threads_flag(m: &Matches) -> Result<Option<usize>, String> {
    m.parse(
        "--threads",
        "a positive integer",
        pvfloorplan::runtime::parse_threads,
    )
}

/// `--days`/`--step`, `None` when absent. Each subcommand checks them as
/// one clock once its defaults fill the gaps.
fn clock_flags(m: &Matches) -> Result<(Option<u32>, Option<u32>), String> {
    Ok((
        m.get("--days", "a day count")?,
        m.get("--step", "a step in minutes")?,
    ))
}

/// The flag wording of a refused `--days`/`--step` clock.
fn clock_error(refusal: ClockRefusal) -> String {
    match refusal {
        ClockRefusal::Invalid(ClockError::Days(days)) => {
            format!("--days must be in 1..=365, got {days}")
        }
        ClockRefusal::Invalid(ClockError::Step(step)) => {
            format!("--step must divide the 1440-minute day evenly, got {step}")
        }
        ClockRefusal::TooLong { steps, max } => format!(
            "--days and --step must make at most {max} steps when serving (the paper's year \
             at 15 minutes), got {steps}"
        ),
    }
}

/// `--chimney`/`--hvac` obstacles: every `X,Y,H` triple, metres, with a
/// positive height.
fn obstacle_flags(m: &Matches, name: &str) -> Result<Vec<(f64, f64, f64)>, String> {
    m.parse_all(name, "X,Y,H (metres, H > 0)", |spec| {
        let parts: Vec<f64> = spec
            .split(',')
            .map(|p| p.trim().parse().ok().filter(|v: &f64| v.is_finite()))
            .collect::<Option<_>>()?;
        let &[x, y, h] = parts.as_slice() else {
            return None;
        };
        (h > 0.0).then_some((x, y, h))
    })
}

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
    help: bool,
}

/// Parses the top-level flags (everything after `pvplan`). Pure, like
/// the subcommand parsers; the roof goes through the same range check as
/// a served spec.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let m = cli::parse("", &[ROOF_FLAGS], args)?;
    let metres = "a number of metres";
    let degrees = "a number of degrees";
    let (days, step) = clock_flags(&m)?;
    let parsed = Args {
        width: m.get("--width", metres)?.unwrap_or(12.0),
        depth: m.get("--depth", metres)?.unwrap_or(5.0),
        tilt: m.get("--tilt", degrees)?.unwrap_or(26.0),
        azimuth: m.get("--azimuth", degrees)?.unwrap_or(180.0),
        series: m.get("--series", "a module count")?.unwrap_or(4),
        strings: m.get("--strings", "a string count")?.unwrap_or(2),
        days: days.unwrap_or(365),
        step: step.unwrap_or(60),
        seed: m.get("--seed", "an integer")?.unwrap_or(42),
        threads: threads_flag(&m)?,
        portrait: m.has("--portrait"),
        chimneys: obstacle_flags(&m, "--chimney")?,
        hvacs: obstacle_flags(&m, "--hvac")?,
        help: m.help,
    };
    SimulationClock::try_days_at_minutes(parsed.days, parsed.step)
        .map_err(|e| clock_error(ClockRefusal::Invalid(e)))?;
    check_roof(parsed.width, parsed.depth, parsed.tilt, parsed.azimuth)
        .map_err(|(key, e)| format!("--{key} {e}"))?;
    Ok(parsed)
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

/// Parses the `suite` flags (everything after `suite`).
fn parse_suite_args(args: &[String]) -> Result<SuiteArgs, String> {
    let m = cli::parse("suite", &[SUITE_FLAGS], args)?;
    let preset = match m.value("--preset") {
        None => CorpusPreset::Smoke,
        Some(name) => CorpusPreset::from_name(name).ok_or_else(|| {
            format!(
                "--preset: unknown preset '{name}' (expected one of {})",
                CorpusPreset::all().map(|p| p.name()).join(", ")
            )
        })?,
    };
    Ok(SuiteArgs {
        preset,
        seed: m.get("--seed", "an integer")?.unwrap_or(CORPUS_SEED),
        threads: threads_flag(&m)?,
        full: m.has("--full"),
        out: m.value("--out").map(str::to_string),
        help: m.help,
    })
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
    // `--full` keeps its 300-proposal chains; every other setting is the
    // standard service's.
    let config = if parsed.full {
        ServiceConfig {
            anneal_iterations: 300,
            ..ServiceConfig::standard()
        }
    } else {
        ServiceConfig::smoke()
    };
    let out = parsed.out.as_deref();
    drive(parsed.preset, parsed.seed, &config, runtime, out).map(|_| ())
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

/// Resolves a `--profile` name plus optional overrides into the serving
/// config, whose clock [`ServiceConfig::clock`] checks before anything
/// binds, spawns or writes.
fn resolve_config(
    profile: &str,
    days: Option<u32>,
    step: Option<u32>,
    cache_mb: Option<usize>,
) -> Result<ServiceConfig, String> {
    let base = match profile {
        "standard" => ServiceConfig::standard(),
        "smoke" => ServiceConfig::smoke(),
        "tiny" => ServiceConfig::tiny(),
        _ => {
            return Err(format!(
                "--profile expects standard|smoke|tiny, got '{profile}'"
            ))
        }
    };
    let config = ServiceConfig {
        days: days.unwrap_or(base.days),
        step_minutes: step.unwrap_or(base.step_minutes),
        ..base
    };
    config.clock(None, None).map_err(clock_error)?;
    let cache_mb = cache_mb.unwrap_or(config.cache_bytes >> 20);
    Ok(config.with_cache_bytes(cache_mb << 20))
}

/// Parses the `serve` flags (everything after `serve`).
fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    serve_args(&cli::parse("serve", &[SERVING_FLAGS], args)?)
}

/// The [`SERVING_FLAGS`] of a `serve` or `route` invocation.
fn serve_args(m: &Matches) -> Result<ServeArgs, String> {
    let cache_mb = m.parse("--cache-mb", "a positive integer", |v| {
        v.parse().ok().filter(|&mb: &usize| mb > 0)
    })?;
    // The upper bound keeps `cache_mb << 20` from silently overflowing
    // usize into a tiny (or zero) byte budget.
    if let Some(mb) = cache_mb.filter(|&mb| mb > usize::MAX >> 20) {
        return Err(format!("--cache-mb is out of range, got {mb}"));
    }
    let profile = m.value("--profile").unwrap_or("standard").to_string();
    let (days, step) = clock_flags(m)?;
    resolve_config(&profile, days, step, cache_mb)?;
    Ok(ServeArgs {
        port: m.get("--port", "0..=65535")?.unwrap_or(8080),
        threads: threads_flag(m)?,
        profile,
        cache_mb,
        days,
        step,
        store_dir: m.value("--store-dir").map(str::to_string),
        port_file: m.value("--port-file").map(str::to_string),
        trace_log: m.value("--trace-log").map(str::to_string),
        watch_stdin: m.has("--watch-stdin"),
        help: m.help,
    })
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

/// Parsed `pvplan route` flags: `--shards` plus the serving flags, whose
/// profile, threads, cache and clock flags are forwarded to every worker
/// and whose `--store-dir` is the partition root.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RouteArgs {
    shards: usize,
    /// `--help`, which waives `--shards` (the same flag as `serve.help`).
    help: bool,
    serve: ServeArgs,
}

/// Parses the `route` flags (everything after `route`).
fn parse_route_args(args: &[String]) -> Result<RouteArgs, String> {
    let m = cli::parse("route", &[SERVING_FLAGS, ROUTE_FLAGS], args)?;
    let shards = m.parse("--shards", "an integer in 1..=64", |v| {
        v.parse().ok().filter(|n| (1..=64).contains(n))
    })?;
    let serve = serve_args(&m)?;
    let help = serve.help;
    if !help && shards.is_none() {
        return Err("route requires --shards N (1..=64)".to_string());
    }
    let shards = shards.unwrap_or(0);
    Ok(RouteArgs {
        shards,
        help,
        serve,
    })
}

/// The `serve` argv `route` gives every worker (the router appends the
/// per-shard port, store and stdin flags): the route's own profile,
/// threads, cache and clock flags, from its `serve` flags.
fn worker_args(serve: &ServeArgs) -> Vec<String> {
    let mut args = vec![
        "serve".to_string(),
        "--profile".to_string(),
        serve.profile.clone(),
    ];
    let forwarded = [
        ("--threads", serve.threads.map(|n| n.to_string())),
        ("--cache-mb", serve.cache_mb.map(|mb| mb.to_string())),
        ("--days", serve.days.map(|d| d.to_string())),
        ("--step", serve.step.map(|s| s.to_string())),
    ];
    for (flag, value) in forwarded {
        if let Some(value) = value {
            args.extend([flag.to_string(), value]);
        }
    }
    args
}

/// Runs the `route` subcommand: spawns the worker fleet behind a
/// consistent-hash router and blocks like `serve` does.
fn run_route(args: &[String]) -> Result<(), String> {
    let route = parse_route_args(args)?;
    let (shards, parsed) = (route.shards, route.serve);
    if route.help {
        println!("{HELP}");
        return Ok(());
    }
    let exe = std::env::current_exe()
        .map_err(|e| format!("locating the pvplan executable for workers: {e}"))?;

    let store_dir = parsed.store_dir.as_deref().unwrap_or("target/router_store");
    let mut config = pvfloorplan::server::RouterConfig::new(shards, exe, store_dir);
    config.worker_args = worker_args(&parsed);
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
    let transport = Runtime::with_threads(shards * per_worker + 2);
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
        shards,
        parsed.profile,
        store_dir
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

/// Parses the `extract` flags (everything after `extract`).
fn parse_extract_args(args: &[String]) -> Result<ExtractArgs, String> {
    let m = cli::parse("extract", &[EXTRACT_FLAGS], args)?;
    let (days, step) = clock_flags(&m)?;
    let config = resolve_config("standard", days, step, None)?;
    let parsed = ExtractArgs {
        store_dir: m.value("--store-dir").map(str::to_string),
        sites: m
            .parse("--sites", "a positive integer", |v| {
                v.parse().ok().filter(|&n: &u32| n > 0)
            })?
            .unwrap_or(4),
        seed: m.get("--seed", "an integer")?.unwrap_or(CORPUS_SEED),
        days: config.days,
        step: config.step_minutes,
        help: m.help,
    };
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
    // The standard serving config for these clock flags: the snapshot's
    // extraction horizon must match what `serve` will compute keys with.
    let config = resolve_config("standard", Some(parsed.days), Some(parsed.step), None)?;
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
    let argv: Vec<String> = std::env::args().collect();
    let rest = argv.get(2..).unwrap_or_default();
    match argv.get(1).map(String::as_str) {
        Some("suite") => return run_suite(rest),
        Some("serve") => return run_serve(rest),
        Some("route") => return run_route(rest),
        Some("extract") => return run_extract(rest),
        _ => {}
    }
    let args = parse_args(argv.get(1..).unwrap_or_default())?;
    if args.help {
        println!("{HELP}");
        return Ok(());
    }

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
    use super::{
        parse_args, parse_extract_args, parse_route_args, parse_serve_args, parse_suite_args,
        worker_args, EXTRACT_FLAGS, HELP, ROOF_FLAGS, ROUTE_FLAGS, SERVING_FLAGS, SUITE_FLAGS,
    };
    use pvfloorplan::gis::synth::CorpusPreset;

    /// Every flag table, so a flag added to one but missing from `HELP`
    /// fails the pin below.
    const TABLES: &[&[pv_bench::cli::Flag]] = &[
        ROOF_FLAGS,
        SUITE_FLAGS,
        SERVING_FLAGS,
        ROUTE_FLAGS,
        EXTRACT_FLAGS,
    ];

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
        for flag in TABLES.iter().flat_map(|t| t.iter()).map(|f| f.name) {
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
        let parsed = parsed.serve;
        assert_eq!(parsed.port, 0);
        assert_eq!(parsed.threads, Some(1));
        assert_eq!(parsed.cache_mb, Some(32));
        assert_eq!((parsed.days, parsed.step), (Some(2), Some(120)));
        assert_eq!(parsed.profile, "tiny");
        assert_eq!(parsed.store_dir.as_deref(), Some("target/router"));
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
            (
                vec!["--shards", "2", "--days", "365", "--step", "1"],
                "at most 35040 steps",
            ),
            (vec!["--shards", "2", "--step", "1"], "at most 35040 steps"),
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
                vec!["--store-dir", "d", "--days", "365", "--step", "1"],
                "at most 35040 steps",
            ),
            (
                vec!["--store-dir", "d", "--step", "1"],
                "at most 35040 steps",
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
            // Each flag is in range, but the clock is longer than the
            // service allows (the standard profile plans on 30 days).
            (vec!["--days", "365", "--step", "1"], "at most 35040 steps"),
            (vec!["--step", "1"], "at most 35040 steps"),
            (vec!["--step"], "--step needs a value"),
            (vec!["--profile", "mega"], "--profile expects"),
            (vec!["--serve-hard"], "unknown serve flag"),
        ] {
            let err = parse_serve_args(&strings(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
    /// An argv from one line of whitespace-separated words.
    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn suite_defaults_match_the_portfolio_smoke_invocation() {
        // `suite` without `--full` is the CI portfolio smoke.
        let parsed = parse_suite_args(&[]).unwrap();
        assert_eq!(parsed.preset, CorpusPreset::Smoke);
        assert_eq!(parsed.seed, pvfloorplan::gis::synth::CORPUS_SEED);
        assert_eq!((parsed.threads, parsed.out), (None, None));
        assert!(!parsed.full && !parsed.help);
    }

    #[test]
    fn suite_parser_accepts_the_portfolio_flags() {
        // The old portfolio `--smoke` is the suite default, so it is not passed.
        let parsed = parse_suite_args(&argv(
            "--preset paper3 --seed 9 --threads 4 --out artifact.json",
        ))
        .unwrap();
        assert_eq!(parsed.preset, CorpusPreset::Paper3);
        assert_eq!(parsed.seed, 9);
        assert_eq!(parsed.threads, Some(4));
        assert!(!parsed.full);
        assert_eq!(parsed.out.as_deref(), Some("artifact.json"));
    }

    #[test]
    fn suite_parser_rejects_the_portfolio_error_cases() {
        for (args, needle) in [
            ("--threads -3", "--threads expects a positive"),
            ("--threads", "--threads needs a value"),
            ("--seed NaN", "--seed expects an integer"),
            ("--cache x", "unknown suite flag '--cache'"),
        ] {
            let err = parse_suite_args(&argv(args)).unwrap_err();
            assert!(err.contains(needle), "{args}: {err}");
        }
        // The unknown-preset message lists every valid preset.
        let err = parse_suite_args(&argv("--preset x")).unwrap_err();
        for preset in CorpusPreset::all() {
            assert!(err.contains(preset.name()), "{err}");
        }
    }

    #[test]
    fn roof_parser_defaults_and_help_are_pure() {
        let parsed = parse_args(&[]).unwrap();
        assert_eq!((parsed.width, parsed.depth), (12.0, 5.0));
        assert_eq!((parsed.tilt, parsed.azimuth), (26.0, 180.0));
        assert_eq!((parsed.series, parsed.strings), (4, 2));
        assert_eq!((parsed.days, parsed.step, parsed.seed), (365, 60, 42));
        assert!(!parsed.help && !parsed.portrait);
        let line = "--chimney 5,2,1.8 --hvac 1,1,2 --chimney 7,3,1 --portrait -h";
        let parsed = parse_args(&argv(line)).unwrap();
        assert_eq!(parsed.chimneys, [(5.0, 2.0, 1.8), (7.0, 3.0, 1.0)]);
        assert_eq!(parsed.hvacs, [(1.0, 1.0, 2.0)]);
        assert!(parsed.portrait && parsed.help);
    }

    #[test]
    fn roof_parser_range_checks_the_roof_like_a_served_spec() {
        for (args, needle) in [
            ("--tilt 95", "--tilt must be in [0, 90)"),
            ("--tilt NaN", "--tilt must be in [0, 90)"),
            ("--width 1e9", "--width must keep the roof within"),
            ("--depth 1e4", "--depth must keep the roof within"),
            ("--width 0", "--width must be"),
            ("--depth -2", "--depth must be"),
            ("--azimuth inf", "--azimuth must be finite"),
            (
                "--width abc",
                "--width expects a number of metres, got 'abc'",
            ),
            ("--series x", "--series expects"),
            ("--chimney 1,2", "--chimney expects X,Y,H"),
            ("--hvac 1,2,-1", "--hvac expects X,Y,H"),
            ("--days 400", "--days must be in 1..=365"),
            ("--step 7", "--step must divide"),
            ("--threads 0", "--threads expects a positive"),
            ("--bogus", "unknown flag '--bogus'"),
        ] {
            let Err(err) = parse_args(&argv(args)) else {
                panic!("{args} parsed");
            };
            assert!(err.contains(needle), "{args}: {err}");
        }
    }

    #[test]
    fn the_argv_the_benchmark_passes_still_parses() {
        // `perfbench/src/serve.rs` spawns `pvplan serve`/`route` with these
        // argvs (its `Proc::spawn` appends the port and stdin flags), and
        // hands the router the `traced` worker args in its traced run.
        let tail = "--port 0 --port-file x/serve0.port --watch-stdin";
        let serve = parse_serve_args(&argv(&format!("--profile standard --threads 2 {tail}")));
        let serve = serve.unwrap();
        assert_eq!(serve.profile, "standard");
        assert_eq!((serve.threads, serve.port), (Some(2), 0));
        assert_eq!(serve.port_file.as_deref(), Some("x/serve0.port"));
        assert_eq!((serve.days, serve.step, serve.cache_mb), (None, None, None));
        assert!(serve.watch_stdin);

        let route = "--shards 2 --threads 1 --profile standard --store-dir x/store";
        let route = parse_route_args(&argv(&format!("{route} {tail}"))).unwrap();
        let (shards, route) = (route.shards, route.serve);
        assert_eq!((shards, route.threads, route.port), (2, Some(1), 0));
        assert_eq!(
            (route.profile.as_str(), route.store_dir.as_deref()),
            ("standard", Some("x/store"))
        );
        assert!(route.watch_stdin);

        let traced = parse_serve_args(&argv("--profile standard --threads 1")).unwrap();
        assert_eq!(
            (traced.profile.as_str(), traced.threads),
            ("standard", Some(1))
        );
    }

    #[test]
    fn worker_args_parse_back_to_the_route_settings() {
        let tuned = "--shards 3 --profile tiny --threads 2 --cache-mb 16 --days 3 --step 30";
        for route in ["--shards 2", tuned] {
            let route = parse_route_args(&argv(route)).unwrap().serve;
            let mut worker = worker_args(&route);
            assert_eq!(worker.remove(0), "serve");
            // What `Router::start` appends for each shard.
            worker.extend(argv("--port 0 --port-file p --store-dir s --watch-stdin"));
            let serve = parse_serve_args(&worker).unwrap();
            assert_eq!(serve.profile, route.profile);
            assert_eq!(
                (serve.threads, serve.cache_mb),
                (route.threads, route.cache_mb)
            );
            assert_eq!((serve.days, serve.step), (route.days, route.step));
        }
    }
}
