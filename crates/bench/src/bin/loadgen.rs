//! Load generator for the placement service: replays a corpus-derived
//! request mix over **real TCP** and writes the machine-readable
//! `BENCH_server.json` (throughput, latency percentiles, cache hit rate).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pv_bench --bin loadgen -- \
//!     [--addr HOST:PORT | --spawn] [--requests N] [--clients C] \
//!     [--sites K] [--seed S] [--threads N] [--out PATH]
//!     [--restart-recovery] [--store-dir PATH]
//!     [--router] [--shards-max N]
//! ```
//!
//! With `--spawn` (the default when `--addr` is absent) an in-process
//! [`pv_server::Server`] is started on an ephemeral port at CI-smoke
//! scale and shut down after the run — the traffic still crosses a real
//! socket, so the measurement includes the full HTTP path.
//!
//! The mix has two phases, and the artifact one record per phase:
//!
//! 1. **cold** — one request per site, sequential: every request misses
//!    the per-site cache and pays extraction.
//! 2. **warm_mix** — `N` requests from `C` concurrent client threads
//!    cycling through the same `K` sites: every request hits the warm
//!    cache. The cold-vs-warm p50 gap is the cache's measured value.
//!
//! `--restart-recovery` (spawn mode only) appends two more phases that
//! measure what the snapshot store buys across a restart: the first
//! server runs with a store at `--store-dir` (default
//! `target/loadgen_store`) and persists its extractions; then
//! **restart_cold** replays one request per site against a fresh
//! storeless server (the price of a restart without persistence), and
//! **restart_hydrated** does the same against a fresh server hydrated
//! from the store. Both rows carry `store_hit_rate`, and the harness
//! asserts the two servers answered byte-identically — persistence is a
//! latency feature, never a correctness one.
//!
//! `--router` (spawn mode only) appends the **throughput-vs-shards
//! curve**: for each shard count `k` in `1..=--shards-max` (default 3)
//! it starts a consistent-hash [`Router`] fronting `k` real `pvplan
//! serve` worker processes (the `pvplan` binary must sit next to the
//! `loadgen` binary — build both in the same profile), replays the
//! corpus cold, runs the warm mix through the proxy, and emits one
//! `shards_k` record carrying `shards` and `cpus` fields. The harness
//! asserts every shard count answered byte-identically (the
//! ordering-insensitive [`compare_response_sets`]); `check_bench_json`
//! gates the scaling ratio on hosts where `cpus` makes it meaningful.
//!
//! After every phase the harness scrapes `pv_place_ok_total` from the
//! target's `/v1/metrics` and asserts the counter's delta equals the
//! number of requests it sent — the server-side accounting (fleet-merged
//! when the target is a router) must agree with the client's ledger.
//!
//! Bad flags exit 1 with an `Error:` message, never a panic.

use pv_bench::cli::{self, Flag};
use pv_bench::json;
use pv_gis::ScenarioSpec;
use pv_obs::Timer;
use pv_runtime::Runtime;
use pv_server::http::send_request;
use pv_server::{PlacementService, Router, RouterConfig, Server, ServiceConfig, StatsSnapshot};
use pv_store::SiteStore;
use std::net::SocketAddr;
use std::sync::Arc;

#[derive(Clone, Debug, PartialEq, Eq)]
struct LoadgenArgs {
    addr: Option<String>,
    requests: usize,
    clients: usize,
    sites: usize,
    seed: u64,
    threads: usize,
    out: Option<String>,
    restart_recovery: bool,
    store_dir: String,
    router: bool,
    shards_max: usize,
}

/// The loadgen flag table.
const LOADGEN_FLAGS: &[Flag] = &[
    Flag::value("--addr"),
    Flag::switch("--spawn"),
    Flag::value("--requests"),
    Flag::value("--clients"),
    Flag::value("--sites"),
    Flag::value("--seed"),
    Flag::value("--threads"),
    Flag::value("--out"),
    Flag::switch("--restart-recovery"),
    Flag::value("--store-dir"),
    Flag::switch("--router"),
    Flag::value("--shards-max"),
];

/// Parses the harness flags. Pure — no I/O, no exits — so the error
/// paths are unit-testable.
fn parse_loadgen_args(args: &[String]) -> Result<LoadgenArgs, String> {
    let m = cli::parse("", &[LOADGEN_FLAGS], args)?;
    if m.help {
        return Err(cli::usage(&[LOADGEN_FLAGS]));
    }
    let positive = |name: &str, default: usize| {
        m.parse(name, "a positive integer", |v| {
            v.parse().ok().filter(|&n: &usize| n > 0)
        })
        .map(|n| n.unwrap_or(default))
    };
    let parsed = LoadgenArgs {
        addr: m.value("--addr").map(str::to_string),
        requests: positive("--requests", 200)?,
        clients: positive("--clients", 4)?,
        sites: positive("--sites", 8)?,
        seed: m
            .get("--seed", "an integer")?
            .unwrap_or(pv_gis::synth::CORPUS_SEED),
        threads: positive("--threads", 2)?,
        out: m.value("--out").map(str::to_string),
        restart_recovery: m.has("--restart-recovery"),
        store_dir: m
            .value("--store-dir")
            .unwrap_or("target/loadgen_store")
            .to_string(),
        router: m.has("--router"),
        shards_max: m
            .parse("--shards-max", "1..=8", |v| {
                v.parse().ok().filter(|n| (1..=8).contains(n))
            })?
            .unwrap_or(3),
    };
    if m.has("--spawn") && parsed.addr.is_some() {
        return Err("--spawn and --addr are mutually exclusive".into());
    }
    if parsed.restart_recovery && parsed.addr.is_some() {
        return Err("--restart-recovery needs spawn mode (it restarts the server)".into());
    }
    if parsed.router && parsed.addr.is_some() {
        return Err("--router needs spawn mode (it starts its own worker fleets)".into());
    }
    Ok(parsed)
}

/// Fires `bodies[i]` for every index in `0..bodies.len()`, spread over
/// `clients` threads (client `c` takes indices `c, c+C, …`), and returns
/// all request latencies in microseconds. Any non-200 aborts the run.
fn run_phase(addr: SocketAddr, bodies: &[String], clients: usize) -> Result<Vec<u64>, String> {
    let clients = clients.min(bodies.len()).max(1);
    // pvlint: allow(D03): load-generator clients are wall-clock actors by design; no placement result flows through them
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<u64>, String> {
                    let mut latencies = Vec::new();
                    for body in bodies.iter().skip(c).step_by(clients) {
                        let t0 = Timer::start();
                        let (status, response) =
                            send_request(addr, "POST", "/v1/place", body.as_bytes())
                                .map_err(|e| format!("request failed: {e}"))?;
                        if status != 200 {
                            return Err(format!("HTTP {status}: {response}"));
                        }
                        latencies.push(t0.elapsed_us());
                    }
                    Ok(latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(results.concat())
}

/// Nearest-rank percentile in milliseconds over unsorted µs samples —
/// the server's own percentile rule ([`pv_server::percentile_us`]), so
/// client- and `/v1/stats`-side numbers in one artifact row always agree
/// on methodology.
fn percentile_ms(latencies_us: &[u64], q: f64) -> f64 {
    pv_server::percentile_us(latencies_us, q) / 1e3
}

/// Fetches and decodes the target's `/v1/stats` — one schema, the
/// server's own [`StatsSnapshot`].
fn fetch_stats(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    let (status, body) =
        send_request(addr, "GET", "/v1/stats", b"").map_err(|e| format!("stats failed: {e}"))?;
    if status != 200 {
        return Err(format!("stats returned HTTP {status}"));
    }
    StatsSnapshot::from_json(&body)
}

/// One artifact record: shared `bench`/`scale`/`name` core + the server
/// measurements (the schema `check_bench_json` enforces). Restart phases
/// additionally carry `store_hit_rate` — how many of the phase's
/// requests were answered from a store-hydrated cache entry. Router
/// phases (`shards_k`) carry `shards` and `cpus`, so the scaling gate in
/// `check_bench_json` can tell a real multi-core measurement from a
/// single-core container where shards only time-slice.
fn record_core(
    scale: &str,
    name: &str,
    latencies_us: &[u64],
    wall_s: f64,
    cache_hit_rate: f64,
    store_hit_rate: Option<f64>,
    shard_info: Option<(usize, usize)>,
) -> json::JsonValue {
    let mut builder = json::ObjectBuilder::new()
        .field("bench", "server_loadgen")
        .field("scale", scale)
        .field("name", name)
        .field("requests", latencies_us.len())
        .field(
            "rps",
            json::rounded(latencies_us.len() as f64 / wall_s.max(1e-9), 1),
        )
        .field(
            "p50_ms",
            json::rounded(percentile_ms(latencies_us, 0.50), 3),
        )
        .field(
            "p99_ms",
            json::rounded(percentile_ms(latencies_us, 0.99), 3),
        )
        .field("cache_hit_rate", json::rounded(cache_hit_rate, 4));
    if let Some(rate) = store_hit_rate {
        builder = builder.field("store_hit_rate", json::rounded(rate, 4));
    }
    if let Some((shards, cpus)) = shard_info {
        builder = builder.field("shards", shards).field("cpus", cpus);
    }
    builder.build()
}

fn record(
    scale: &str,
    name: &str,
    latencies_us: &[u64],
    wall_s: f64,
    cache_hit_rate: f64,
    store_hit_rate: Option<f64>,
) -> json::JsonValue {
    record_core(
        scale,
        name,
        latencies_us,
        wall_s,
        cache_hit_rate,
        store_hit_rate,
        None,
    )
}

/// Per-phase cache hit rate from before/after stats snapshots, so prior
/// traffic never contaminates a phase's number.
fn phase_rate(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    StatsSnapshot {
        cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
        cache_misses: after.cache_misses.saturating_sub(before.cache_misses),
        ..StatsSnapshot::default()
    }
    .cache_hit_rate()
}

/// Extracts one counter's value from Prometheus exposition text. Pure,
/// so the parsing is unit-testable: `# HELP`/`# TYPE` comment lines are
/// skipped by the prefix match, and the mandatory space after the metric
/// name keeps `pv_place_ok_total` from matching a longer name it
/// prefixes.
fn counter_from_exposition(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
        })
        .and_then(|value| value.trim().parse().ok())
}

/// Scrapes `pv_place_ok_total` from the target's `/v1/metrics`. Against
/// a router this is the fleet-merged counter, so the cross-check also
/// exercises the stats fan-out.
fn scrape_place_ok(addr: SocketAddr) -> Result<u64, String> {
    let (status, body) = send_request(addr, "GET", "/v1/metrics", b"")
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    if status != 200 {
        return Err(format!("metrics returned HTTP {status}"));
    }
    counter_from_exposition(&body, "pv_place_ok_total")
        .ok_or_else(|| "metrics exposition missing pv_place_ok_total".to_string())
}

/// The request-accounting cross-check: after each phase the scraped
/// `pv_place_ok_total` delta must equal the number of requests the
/// harness actually sent — every 200 the clients saw was counted exactly
/// once, through routers and respawns alike.
fn check_place_counter(label: &str, before: u64, after: u64, sent: usize) -> Result<(), String> {
    let counted = after.saturating_sub(before);
    if counted == sent as u64 {
        Ok(())
    } else {
        Err(format!(
            "{label}: sent {sent} request(s) but pv_place_ok_total moved by {counted} — \
             the server lost or double-counted requests"
        ))
    }
}

/// Replays the corpus sequentially, keeping both latencies and response
/// bodies — the shared measurement + evidence-gathering pass behind the
/// restart-recovery and router byte-identity assertions.
fn replay_corpus(addr: SocketAddr, bodies: &[String]) -> Result<(Vec<u64>, Vec<String>), String> {
    let mut latencies = Vec::with_capacity(bodies.len());
    let mut responses = Vec::with_capacity(bodies.len());
    for body in bodies {
        let t0 = Timer::start();
        let (status, response) = send_request(addr, "POST", "/v1/place", body.as_bytes())
            .map_err(|e| format!("request failed: {e}"))?;
        if status != 200 {
            return Err(format!("HTTP {status}: {response}"));
        }
        latencies.push(t0.elapsed_us());
        responses.push(response);
    }
    Ok((latencies, responses))
}

/// Asserts two response sets are byte-exact up to ordering: both sides
/// sorted, then compared element-wise. Ordering-insensitivity matters
/// because concurrent replays complete in arrival order, which is not
/// deterministic — the *bytes served* are the contract, not the order
/// they came back in. Returns the first divergence as an error.
fn compare_response_sets(label: &str, want: &[String], got: &[String]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "{label}: {} response(s) vs {} — a request was dropped or duplicated",
            want.len(),
            got.len()
        ));
    }
    let mut want_sorted: Vec<&String> = want.iter().collect();
    let mut got_sorted: Vec<&String> = got.iter().collect();
    want_sorted.sort();
    got_sorted.sort();
    for (i, (want, got)) in want_sorted.iter().zip(&got_sorted).enumerate() {
        if want != got {
            let preview = |s: &str| s.chars().take(120).collect::<String>();
            return Err(format!(
                "{label}: response sets diverge at sorted index {i}:\n  want: {}\n  got:  {}",
                preview(want),
                preview(got)
            ));
        }
    }
    Ok(())
}

/// Spawns an in-process smoke-scale server, optionally store-backed
/// (hydrating before it binds, like `pvplan serve --store-dir`).
fn spawn_server(
    threads: usize,
    store_dir: Option<&str>,
) -> Result<(Server, Arc<PlacementService>), String> {
    let mut service = PlacementService::new(ServiceConfig::smoke());
    if let Some(dir) = store_dir {
        let store = SiteStore::open(dir).map_err(|e| format!("opening store '{dir}': {e}"))?;
        service = service.with_store(Arc::new(store));
    }
    let service = Arc::new(service);
    service
        .hydrate_store()
        .map_err(|e| format!("hydrating store: {e}"))?;
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        Runtime::with_threads(threads),
        64,
    )
    .map_err(|e| format!("spawning server: {e}"))?;
    Ok((server, service))
}

/// The throughput-vs-shards curve: for each shard count `k`, a
/// consistent-hash router fronting `k` real `pvplan serve` processes
/// takes the cold replay (byte-identity evidence) and the warm mix (the
/// `shards_k` record). Every shard count must serve the same bytes; the
/// recorded `cpus` lets the bench gate skip the scaling ratio on hosts
/// where extra processes can only time-slice one core.
fn run_router_curve(
    args: &LoadgenArgs,
    bodies: &[String],
    scale: &str,
    records: &mut Vec<json::JsonValue>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating loadgen binary: {e}"))?;
    let pvplan = exe
        .parent()
        .map(|dir| dir.join("pvplan"))
        .filter(|p| p.exists())
        .ok_or(
            "pvplan binary not found next to loadgen; \
             build it first: cargo build --release -p pvfloorplan --bin pvplan",
        )?;
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let mix: Vec<String> = (0..args.requests)
        .map(|r| bodies[r % bodies.len()].clone())
        .collect();
    let mut reference: Option<Vec<String>> = None;
    for shards in 1..=args.shards_max {
        let root = std::path::PathBuf::from(&args.store_dir).join(format!("shards_{shards}"));
        if root.exists() {
            std::fs::remove_dir_all(&root)
                .map_err(|e| format!("clearing store '{}': {e}", root.display()))?;
        }
        let mut config = RouterConfig::new(shards, &pvplan, &root);
        config.worker_args = vec![
            "serve".into(),
            "--profile".into(),
            "smoke".into(),
            "--threads".into(),
            args.threads.to_string(),
        ];
        let router = Arc::new(
            Router::start(config).map_err(|e| format!("starting {shards}-shard fleet: {e}"))?,
        );
        let transport = Runtime::with_threads(args.threads * shards + 2);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&router), transport, 64)
            .map_err(|e| format!("binding router front end: {e}"))?;
        let addr = server.local_addr();
        eprintln!("loadgen: {shards}-shard fleet up at {addr}...");

        // Cold replay: the byte-identity evidence across shard counts.
        let ok_start = scrape_place_ok(addr)?;
        let (_, responses) = replay_corpus(addr, bodies)?;
        match &reference {
            None => reference = Some(responses),
            Some(want) => compare_response_sets(
                &format!("router byte-identity (shards_{shards} vs shards_1)"),
                want,
                &responses,
            )?,
        }
        let ok_cold = scrape_place_ok(addr)?;
        check_place_counter(
            &format!("shards_{shards} cold replay"),
            ok_start,
            ok_cold,
            bodies.len(),
        )?;

        // Warm mix through the proxy: the throughput measurement.
        let before = fetch_stats(addr)?;
        let t0 = Timer::start();
        let warm = run_phase(addr, &mix, args.clients)?;
        let wall = t0.elapsed_us() as f64 / 1e6;
        let after = fetch_stats(addr)?;
        check_place_counter(
            &format!("shards_{shards} warm mix"),
            ok_cold,
            scrape_place_ok(addr)?,
            mix.len(),
        )?;
        println!(
            "shards_{shards}: {:>5} req, p50 {:>8.2} ms, p99 {:>8.2} ms, {:.1} req/s ({cpus} cpu(s))",
            warm.len(),
            percentile_ms(&warm, 0.5),
            percentile_ms(&warm, 0.99),
            warm.len() as f64 / wall.max(1e-9),
        );
        records.push(record_core(
            scale,
            &format!("shards_{shards}"),
            &warm,
            wall,
            phase_rate(&before, &after),
            None,
            Some((shards, cpus)),
        ));
        server.shutdown();
    }
    Ok(())
}

fn run(args: &LoadgenArgs) -> Result<(), String> {
    // Target: an external server, or a spawned in-process one (still real
    // TCP on a real ephemeral port). In restart-recovery mode the first
    // server is store-backed so its extractions persist across restarts.
    let store_dir = args.restart_recovery.then_some(args.store_dir.as_str());
    if let Some(dir) = store_dir {
        // A stale store would warm the "cold" phase: start from scratch.
        if std::path::Path::new(dir).exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing store '{dir}': {e}"))?;
        }
    }
    let mut spawned = match &args.addr {
        Some(_) => None,
        None => Some(spawn_server(args.threads, store_dir)?),
    };
    let addr: SocketAddr = match (&args.addr, &spawned) {
        (Some(addr), _) => addr.parse().map_err(|e| format!("--addr '{addr}': {e}"))?,
        (None, Some((server, _))) => server.local_addr(),
        _ => unreachable!(),
    };

    // Liveness gate before measuring anything.
    let (status, body) = send_request(addr, "GET", "/v1/healthz", b"")
        .map_err(|e| format!("healthz failed: {e}"))?;
    if status != 200 {
        return Err(format!("healthz returned HTTP {status}: {body}"));
    }

    let bodies: Vec<String> = (0..args.sites)
        .map(|i| ScenarioSpec::generate(args.seed, i as u32).to_spec_string())
        .collect();
    eprintln!(
        "loadgen: {} site(s), {} request(s), {} client(s) against {addr}...",
        args.sites, args.requests, args.clients
    );

    // Phase 1 — cold: one sequential request per site (cache misses on a
    // fresh server). Hit rates are computed as *per-phase deltas* of the
    // server's counters, so prior traffic on an external `--addr` server
    // never contaminates a phase's number.
    let before_cold = fetch_stats(addr)?;
    let ok_start = scrape_place_ok(addr)?;
    let t0 = Timer::start();
    let cold = run_phase(addr, &bodies, 1)?;
    let cold_wall = t0.elapsed_us() as f64 / 1e6;
    let before_warm = fetch_stats(addr)?;
    let ok_cold = scrape_place_ok(addr)?;
    check_place_counter("cold", ok_start, ok_cold, bodies.len())?;

    // Phase 2 — warm mix: N requests cycling the same sites, concurrent.
    let mix: Vec<String> = (0..args.requests)
        .map(|r| bodies[r % bodies.len()].clone())
        .collect();
    let t0 = Timer::start();
    let warm = run_phase(addr, &mix, args.clients)?;
    let warm_wall = t0.elapsed_us() as f64 / 1e6;
    let after_warm = fetch_stats(addr)?;
    check_place_counter("warm_mix", ok_cold, scrape_place_ok(addr)?, mix.len())?;

    let hit_rate = phase_rate(&before_warm, &after_warm);

    let scale = format!(
        "{} sites, {} clients, seed {}, smoke clock",
        args.sites, args.clients, args.seed
    );
    let mut records = vec![
        record(
            &scale,
            "cold",
            &cold,
            cold_wall,
            phase_rate(&before_cold, &before_warm),
            None,
        ),
        record(&scale, "warm_mix", &warm, warm_wall, hit_rate, None),
    ];

    let restart = if args.restart_recovery {
        // Shut the first server down: its accept loop drains the store's
        // write-behind queue, so every extraction is committed on disk.
        let (server, service) = spawned
            .take()
            .ok_or("--restart-recovery needs spawn mode")?;
        server.shutdown();
        drop(service);

        // Restart A — no store: the baseline price of coming back cold.
        let (server, _) = spawn_server(args.threads, None)?;
        let t0 = Timer::start();
        let (cold_lat, cold_responses) = replay_corpus(server.local_addr(), &bodies)?;
        let restart_cold_wall = t0.elapsed_us() as f64 / 1e6;
        check_place_counter(
            "restart_cold",
            0,
            scrape_place_ok(server.local_addr())?,
            bodies.len(),
        )?;
        server.shutdown();

        // Restart B — hydrated from the snapshot store.
        let (server, service) = spawn_server(args.threads, store_dir)?;
        let t0 = Timer::start();
        let (hydrated_lat, hydrated_responses) = replay_corpus(server.local_addr(), &bodies)?;
        let hydrated_wall = t0.elapsed_us() as f64 / 1e6;
        check_place_counter(
            "restart_hydrated",
            0,
            scrape_place_ok(server.local_addr())?,
            bodies.len(),
        )?;
        let stats = fetch_stats(server.local_addr())?;
        let (store_hits, cache_hits) = (stats.store_hits as f64, stats.cache_hits as f64);
        let snapshots = stats.store_hydrated;
        server.shutdown();
        drop(service);

        // The acceptance gate: persistence must be invisible in the bytes.
        compare_response_sets(
            "restart recovery (hydrated vs storeless baseline)",
            &cold_responses,
            &hydrated_responses,
        )?;
        let n = bodies.len() as f64;
        records.push(record(
            &scale,
            "restart_cold",
            &cold_lat,
            restart_cold_wall,
            0.0,
            Some(0.0),
        ));
        records.push(record(
            &scale,
            "restart_hydrated",
            &hydrated_lat,
            hydrated_wall,
            cache_hits / n,
            Some(store_hits / n),
        ));
        Some((cold_lat, hydrated_lat, store_hits / n, snapshots))
    } else {
        None
    };

    if args.router {
        run_router_curve(args, &bodies, &scale, &mut records)?;
    }

    let doc = json::render_record_array(&records);
    let path = args.out.as_deref().unwrap_or(pv_bench::SERVER_JSON);
    std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;

    println!(
        "cold:     {:>5} req, p50 {:>8.2} ms, p99 {:>8.2} ms",
        cold.len(),
        percentile_ms(&cold, 0.5),
        percentile_ms(&cold, 0.99)
    );
    println!(
        "warm mix: {:>5} req, p50 {:>8.2} ms, p99 {:>8.2} ms, {:.1} req/s, hit rate {:.3}",
        warm.len(),
        percentile_ms(&warm, 0.5),
        percentile_ms(&warm, 0.99),
        warm.len() as f64 / warm_wall.max(1e-9),
        hit_rate
    );
    println!(
        "server counters this run: {} hit(s), {} miss(es)",
        after_warm.cache_hits.saturating_sub(before_cold.cache_hits),
        after_warm
            .cache_misses
            .saturating_sub(before_cold.cache_misses),
    );
    if let Some((cold_lat, hydrated_lat, store_hit_rate, snapshots)) = restart {
        println!(
            "restart cold:     {:>5} req, p50 {:>8.2} ms (no store)",
            cold_lat.len(),
            percentile_ms(&cold_lat, 0.5),
        );
        println!(
            "restart hydrated: {:>5} req, p50 {:>8.2} ms, store hit rate {:.3} \
             ({snapshots} snapshot(s) hydrated, responses byte-identical)",
            hydrated_lat.len(),
            percentile_ms(&hydrated_lat, 0.5),
            store_hit_rate,
        );
    }
    println!("wrote {path}");

    if let Some((server, _)) = spawned {
        server.shutdown();
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_loadgen_args(&args).and_then(|parsed| run(&parsed));
    if let Err(e) = result {
        eprintln!("Error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_the_documented_flags() {
        let parsed = parse_loadgen_args(&strings(&[
            "--spawn",
            "--requests",
            "50",
            "--clients",
            "3",
            "--sites",
            "2",
            "--seed",
            "5",
            "--threads",
            "1",
            "--out",
            "x.json",
        ]))
        .unwrap();
        assert_eq!(parsed.requests, 50);
        assert_eq!(parsed.clients, 3);
        assert_eq!(parsed.sites, 2);
        assert_eq!(parsed.seed, 5);
        assert_eq!(parsed.threads, 1);
        assert_eq!(parsed.addr, None);
        assert_eq!(parsed.out.as_deref(), Some("x.json"));
    }

    #[test]
    fn error_paths_return_messages_not_panics() {
        for (args, needle) in [
            (vec!["--requests", "0"], "--requests expects a positive"),
            (vec!["--clients", "-1"], "--clients expects a positive"),
            (vec!["--sites", "many"], "--sites expects a positive"),
            (vec!["--addr"], "--addr needs a value"),
            (vec!["--bogus"], "unknown flag"),
            (
                vec!["--spawn", "--addr", "127.0.0.1:1"],
                "mutually exclusive",
            ),
        ] {
            let err = parse_loadgen_args(&strings(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn percentiles_are_nearest_rank_in_ms() {
        let us: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        assert_eq!(percentile_ms(&us, 0.5), 500.0);
        assert_eq!(percentile_ms(&us, 0.99), 990.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn records_match_the_server_schema_shape() {
        let r = record("s", "cold", &[1000, 2000], 0.5, 0.25, None);
        assert_eq!(r.get("bench").unwrap().as_str(), Some("server_loadgen"));
        assert_eq!(r.get("requests").unwrap().as_number(), Some(2.0));
        assert_eq!(r.get("rps").unwrap().as_number(), Some(4.0));
        assert!(r.get("p50_ms").unwrap().as_number().unwrap() > 0.0);
        assert_eq!(r.get("cache_hit_rate").unwrap().as_number(), Some(0.25));
        assert!(
            r.get("store_hit_rate").is_none(),
            "non-restart rows omit it"
        );

        let r = record("s", "restart_hydrated", &[1000], 0.5, 1.0, Some(1.0));
        assert_eq!(r.get("store_hit_rate").unwrap().as_number(), Some(1.0));
    }

    #[test]
    fn exposition_counter_parses_values_and_skips_comments() {
        let text = "# HELP pv_place_ok_total Successful /v1/place solves.\n\
                    # TYPE pv_place_ok_total counter\n\
                    pv_place_ok_totals 9\n\
                    pv_place_ok_total 42\n\
                    pv_requests_total 50\n";
        assert_eq!(counter_from_exposition(text, "pv_place_ok_total"), Some(42));
        assert_eq!(counter_from_exposition(text, "pv_requests_total"), Some(50));
        assert_eq!(counter_from_exposition(text, "pv_errors_total"), None);
        assert_eq!(counter_from_exposition("", "pv_place_ok_total"), None);
    }

    #[test]
    fn place_counter_check_demands_an_exact_delta() {
        assert_eq!(check_place_counter("p", 10, 15, 5), Ok(()));
        let err = check_place_counter("cold", 10, 14, 5).unwrap_err();
        assert!(
            err.contains("cold") && err.contains("sent 5") && err.contains("moved by 4"),
            "{err}"
        );
        // A counter that went backwards (impossible without a bug) fails.
        assert!(check_place_counter("p", 10, 8, 2).is_err());
    }

    #[test]
    fn response_set_comparison_is_ordering_insensitive_but_byte_exact() {
        let a: Vec<String> = ["alpha", "beta", "gamma"]
            .iter()
            .map(ToString::to_string)
            .collect();
        // Any permutation of the same bytes passes.
        let permuted: Vec<String> = ["gamma", "alpha", "beta"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(compare_response_sets("p", &a, &permuted), Ok(()));

        // A single flipped byte fails, naming the divergence.
        let mut flipped = permuted.clone();
        flipped[0] = "gamme".to_string();
        let err = compare_response_sets("flip", &a, &flipped).unwrap_err();
        assert!(err.contains("flip") && err.contains("diverge"), "{err}");

        // A dropped response fails on the count, not a zip truncation.
        let err = compare_response_sets("len", &a, &a[..2]).unwrap_err();
        assert!(err.contains("3 response(s) vs 2"), "{err}");
    }

    #[test]
    fn router_flags_parse_and_validate() {
        let parsed = parse_loadgen_args(&strings(&["--router", "--shards-max", "2"])).unwrap();
        assert!(parsed.router);
        assert_eq!(parsed.shards_max, 2);
        let defaults = parse_loadgen_args(&[]).unwrap();
        assert!(!defaults.router);
        assert_eq!(defaults.shards_max, 3);
        for (args, needle) in [
            (vec!["--shards-max", "0"], "--shards-max expects 1..=8"),
            (vec!["--shards-max", "9"], "--shards-max expects 1..=8"),
            (vec!["--router", "--addr", "127.0.0.1:1"], "spawn mode"),
        ] {
            let err = parse_loadgen_args(&strings(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn shard_records_carry_shards_and_cpus() {
        let r = record_core("s", "shards_2", &[1000], 0.5, 0.9, None, Some((2, 4)));
        assert_eq!(r.get("shards").unwrap().as_number(), Some(2.0));
        assert_eq!(r.get("cpus").unwrap().as_number(), Some(4.0));
        let plain = record("s", "warm_mix", &[1000], 0.5, 0.9, None);
        assert!(plain.get("shards").is_none(), "plain rows omit shards");
    }

    #[test]
    fn restart_recovery_flags_parse_and_validate() {
        let parsed =
            parse_loadgen_args(&strings(&["--restart-recovery", "--store-dir", "d"])).unwrap();
        assert!(parsed.restart_recovery);
        assert_eq!(parsed.store_dir, "d");
        // Default store dir, off by default.
        let defaults = parse_loadgen_args(&[]).unwrap();
        assert!(!defaults.restart_recovery);
        assert_eq!(defaults.store_dir, "target/loadgen_store");
        // Restarting an external server is not something we can do.
        let err = parse_loadgen_args(&strings(&["--restart-recovery", "--addr", "127.0.0.1:1"]))
            .unwrap_err();
        assert!(err.contains("spawn mode"), "{err}");
    }
}
