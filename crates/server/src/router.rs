//! The shard router: consistent-hash fan-out of `/v1/place` over
//! supervised `pvplan serve` worker processes.
//!
//! One process, one LRU, one acceptor caps warm throughput at whatever a
//! single placement service can solve. The [`Router`] scales that out
//! horizontally while keeping the workspace determinism contract intact:
//!
//! * **Placement.** Every `/v1/place` body is hashed with
//!   [`place_shard_key`] — the spec's [`canonical_hash`] when the body
//!   parses, the FNV-1a hash of the raw bytes when it does not — and the
//!   [`HashRing`] maps that key onto one worker. A site's warm cache and
//!   snapshot store therefore live on exactly one shard, and even a
//!   malformed body is routed deterministically so its `400` bytes come
//!   from the same code path as a single-process server.
//! * **Supervision.** Workers are real OS processes spawned through
//!   [`pv_runtime::Supervisor`] (the sanctioned child-process helper —
//!   pvlint rule D03 bans `process::Command` anywhere else). Each worker
//!   gets its own store partition ([`pv_store::shard_dir`]) and writes
//!   its ephemeral address to a *port file* once bound; a respawned
//!   worker rewrites that file, rehydrates its partition, and the router
//!   picks the new address up on the next connection failure.
//! * **Proxying.** Per-shard connections are bounded by a counting
//!   semaphore of `MAX_CONNECTIONS_PER_SHARD` (32) permits. A transport
//!   failure triggers *retry-once-on-refused*: wait (bounded) for the
//!   shard's `/v1/healthz` to answer on its current port-file address,
//!   re-send once, and only then give up with a structured `503`.
//! * **Stats.** `GET /v1/stats` and `GET /v1/metrics` fan out to every
//!   live shard, decode each answer into a [`StatsSnapshot`] and merge
//!   them into one that starts from the router's own queue depth and
//!   dropped trace events. Counters and cache gauges are summed,
//!   `queue_depth` is the maximum, and the latency and stage histograms
//!   merge bucket-wise — exact, since fixed-bucket histograms compose
//!   where raw quantiles do not. Both endpoints render that one merged
//!   snapshot, with the fleet fields (`shards`, `shards_up`,
//!   `shard_restarts`, `shard_pids`) alongside; `/v1/metrics` therefore
//!   carries the same counters as `/v1/stats`, store counters included.
//! * **Tracing.** Every proxied `/v1/place` carries a trace id — the one
//!   a caller forwarded in the internal `x-pv-trace` header, or one the
//!   router derives from the body — so a router-side trace event and the
//!   shard-side span breakdown of the same request share an id. The
//!   header is hop-by-hop: responses never echo it, so `/v1/place` bytes
//!   are untouched.
//!
//! **Determinism argument.** A `/v1/place` response body is a pure
//! function of the request on any single server (no timing, no cache
//! metadata). The router adds only *placement* (which pure function
//! evaluates the request) and *retries* (re-evaluating the same pure
//! function), so identical requests produce byte-identical bodies at any
//! shard count, under any placement, before/during/after a shard
//! restart — pinned end-to-end by `tests/server.rs`.
//!
//! [`canonical_hash`]: pv_gis::ScenarioSpec::canonical_hash

use crate::http::{send_request, send_request_traced};
use crate::ring::HashRing;
use crate::server::{route_path, Handler, RequestContext};
use crate::service::{error_body, PlaceRequest};
use crate::stats::{Fleet, StatsSnapshot};
use pv_gis::synth::fnv1a;
use pv_obs::{derive_trace_id, event_line, Timer, TraceLog};
use pv_runtime::{ChildSpec, Gate, Supervisor};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Supervisor poll interval for dead-worker detection.
const SUPERVISOR_POLL: Duration = Duration::from_millis(100);

/// Sleep between health probes while waiting for a shard.
const HEALTH_POLL: Duration = Duration::from_millis(50);

/// Upper bound on concurrent proxy connections per shard.
const MAX_CONNECTIONS_PER_SHARD: usize = 32;

/// Health-probe attempts (× 50 ms) to wait for each worker at start: a
/// 30 s startup deadline.
const STARTUP_ATTEMPTS: u32 = 600;

/// Health-probe attempts before a retried request gives up (× 50 ms —
/// generous enough for respawn + store rehydration at serving scale).
const RETRY_ATTEMPTS: u32 = 300;

/// Shard key for a `/v1/place` body: the canonical spec hash when the
/// body parses as a place request, otherwise the FNV-1a hash of the raw
/// bytes — a pure function of the body either way, so malformed requests
/// are proxied (and answered with the service's own `400` bytes) instead
/// of special-cased in the router.
#[must_use]
pub fn place_shard_key(body: &[u8]) -> u64 {
    core::str::from_utf8(body)
        .ok()
        .and_then(|text| PlaceRequest::parse(text).ok())
        .map_or_else(|| fnv1a(body), |request| request.spec.canonical_hash())
}

/// Configuration for [`Router::start`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Number of backend workers (clamped to at least 1).
    pub shards: usize,
    /// Worker executable (normally the `pvplan` binary itself).
    pub worker_program: PathBuf,
    /// Common worker arguments, e.g. `["serve", "--profile", "smoke"]`.
    /// The router appends per-shard `--port 0 --port-file … --store-dir …
    /// --watch-stdin` — the worker must accept `pvplan serve` flags.
    pub worker_args: Vec<String>,
    /// Root directory holding each shard's store partition and port file.
    pub store_root: PathBuf,
    /// When set, each worker is spawned with
    /// `--trace-log <base>.shard<k>` so the fleet's structured event
    /// logs line up with the router's (shared trace ids, one file per
    /// process). `None` leaves worker tracing off.
    pub trace_log_base: Option<PathBuf>,
}

impl RouterConfig {
    /// A config with no extra worker arguments and worker tracing off.
    /// Every router allows 32 connections per shard and waits up to 30 s
    /// for each worker to start.
    #[must_use]
    pub fn new(
        shards: usize,
        worker_program: impl Into<PathBuf>,
        store_root: impl Into<PathBuf>,
    ) -> Self {
        Self {
            shards,
            worker_program: worker_program.into(),
            worker_args: Vec::new(),
            store_root: store_root.into(),
            trace_log_base: None,
        }
    }
}

/// Router-side state for one backend worker.
struct ShardSlot {
    /// File the worker writes its bound address into (rewritten by every
    /// respawned incarnation, since ephemeral ports change).
    port_file: PathBuf,
    /// Last known good address; refreshed from the port file on failure.
    addr: Mutex<Option<SocketAddr>>,
    /// Bounds concurrent proxy connections to this shard.
    gate: Gate,
}

/// A running shard router: supervised workers plus the hash ring and
/// per-shard client state. Implements [`Handler`], so it is served by the
/// same [`Server`](crate::Server) transport as a single-process service.
pub struct Router {
    ring: HashRing,
    shards: Vec<ShardSlot>,
    supervisor: Supervisor,
    /// Router-side structured event log (`--trace-log`); `None` when
    /// tracing is off. Lossy by design — see [`TraceLog`].
    trace_log: Option<Arc<TraceLog>>,
    /// Sequence for deriving trace ids of requests that arrived without
    /// an `x-pv-trace` header (i.e. every external request).
    trace_seq: AtomicU64,
}

impl Router {
    /// Spawns and supervises `config.shards` workers, waits for every one
    /// to answer `/v1/healthz`, and returns the ready router.
    ///
    /// # Errors
    ///
    /// Returns a description of the first failure (store-root creation,
    /// worker spawn, or a worker missing its startup deadline); any
    /// already-spawned workers are torn down before returning.
    pub fn start(config: RouterConfig) -> Result<Self, String> {
        let shard_count = config.shards.max(1);
        std::fs::create_dir_all(&config.store_root)
            .map_err(|e| format!("create store root {}: {e}", config.store_root.display()))?;

        let mut specs = Vec::with_capacity(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let store_dir = pv_store::shard_dir(&config.store_root, index);
            let port_file = config.store_root.join(format!("shard-{index:03}.port"));
            // A stale port file from a previous run would point health
            // probes at a dead (or worse, foreign) port.
            let _ = std::fs::remove_file(&port_file);

            let mut args = config.worker_args.clone();
            args.extend([
                "--port".to_string(),
                "0".to_string(),
                "--port-file".to_string(),
                port_file.to_string_lossy().into_owned(),
                "--store-dir".to_string(),
                store_dir.to_string_lossy().into_owned(),
                "--watch-stdin".to_string(),
            ]);
            if let Some(base) = &config.trace_log_base {
                args.extend([
                    "--trace-log".to_string(),
                    format!("{}.shard{index}", base.display()),
                ]);
            }
            specs.push(ChildSpec::new(&config.worker_program, args));
            shards.push(ShardSlot {
                port_file,
                addr: Mutex::new(None),
                gate: Gate::new(MAX_CONNECTIONS_PER_SHARD),
            });
        }

        let supervisor = Supervisor::start(specs, SUPERVISOR_POLL).map_err(|e| {
            format!(
                "spawn workers from {}: {e}",
                config.worker_program.display()
            )
        })?;
        let router = Self {
            ring: HashRing::new(shard_count),
            shards,
            supervisor,
            trace_log: None,
            trace_seq: AtomicU64::new(0),
        };
        for (index, slot) in router.shards.iter().enumerate() {
            if !router.wait_healthy(slot, STARTUP_ATTEMPTS) {
                router.shutdown_workers();
                return Err(format!("shard {index} did not become healthy in time"));
            }
        }
        Ok(router)
    }

    /// The ring this router places keys with (pure function of the shard
    /// count — tests use it to predict request placement).
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Attaches a structured trace-event log; every routed request then
    /// appends one JSONL event, flushed off the request path.
    #[must_use]
    pub fn with_trace_log(mut self, log: Arc<TraceLog>) -> Self {
        self.trace_log = Some(log);
        self
    }

    /// Tears the worker fleet down: graceful stdin-EOF drain first, then
    /// kill. Idempotent; also runs via [`Handler::on_shutdown`] when the
    /// fronting server drains.
    pub fn shutdown_workers(&self) {
        self.supervisor.shutdown();
    }

    /// Current address of a shard, from cache or its port file.
    fn shard_addr(&self, slot: &ShardSlot) -> std::io::Result<SocketAddr> {
        let cached = slot
            .addr
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .copied();
        match cached {
            Some(addr) => Ok(addr),
            None => self.refresh_addr(slot),
        }
    }

    /// Re-reads a shard's port file (a respawned worker rewrites it after
    /// binding a fresh ephemeral port) and caches the parsed address.
    fn refresh_addr(&self, slot: &ShardSlot) -> std::io::Result<SocketAddr> {
        let text = std::fs::read_to_string(&slot.port_file)?;
        let addr: SocketAddr = text.trim().parse().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("port file {}: {e}", slot.port_file.display()),
            )
        })?;
        *slot.addr.lock().unwrap_or_else(PoisonError::into_inner) = Some(addr);
        Ok(addr)
    }

    /// One proxied exchange with a shard over a fresh connection. A
    /// trace id, when present, rides along in the internal `x-pv-trace`
    /// header so router- and shard-side events of one request share it.
    ///
    /// On a transport failure the cached address may be stale (a
    /// respawned worker binds a fresh ephemeral port and rewrites its
    /// port file), so the exchange is retried once against a re-read
    /// address before the error propagates.
    fn forward(
        &self,
        slot: &ShardSlot,
        method: &str,
        path: &str,
        body: &[u8],
        trace: Option<u64>,
    ) -> std::io::Result<(u16, String)> {
        let send = |addr| match trace {
            Some(id) => send_request_traced(addr, method, path, body, id),
            None => send_request(addr, method, path, body),
        };
        let addr = self.shard_addr(slot)?;
        match send(addr) {
            Ok(response) => Ok(response),
            Err(_) => {
                let addr = self.refresh_addr(slot)?;
                send(addr)
            }
        }
    }

    /// Polls a shard's port file + `/v1/healthz` until it answers `200`
    /// or `attempts` probes (× [`HEALTH_POLL`]) are exhausted.
    fn wait_healthy(&self, slot: &ShardSlot, attempts: u32) -> bool {
        for _ in 0..attempts {
            if let Ok(addr) = self.refresh_addr(slot) {
                if matches!(send_request(addr, "GET", "/v1/healthz", b""), Ok((200, _))) {
                    return true;
                }
            }
            std::thread::sleep(HEALTH_POLL);
        }
        false
    }

    /// Proxies one request to `shard` with retry-once-on-refused: a
    /// transport failure (refused, reset, vanished port file) waits for
    /// the supervisor's respawn to pass a health probe, re-sends exactly
    /// once, and otherwise answers a structured `503`. Requests are pure
    /// functions of their bodies, so the retry cannot change bytes.
    fn proxy(
        &self,
        shard: usize,
        method: &str,
        path: &str,
        body: &[u8],
        trace: u64,
    ) -> (u16, String) {
        let Some(slot) = self.shards.get(shard) else {
            return (500, error_body("internal: ring produced an unknown shard"));
        };
        let _permit = slot.gate.acquire();
        if let Ok(answer) = self.forward(slot, method, path, body, Some(trace)) {
            return answer;
        }
        if self.wait_healthy(slot, RETRY_ATTEMPTS) {
            if let Ok(answer) = self.forward(slot, method, path, body, Some(trace)) {
                return answer;
            }
        }
        (503, error_body(&format!("shard {shard} is unavailable")))
    }

    /// The fleet's stats: the router's own queue depth and trace drops,
    /// merged with the `/v1/stats` of every shard that answered.
    fn fleet_stats(&self, queue_depth: usize) -> (StatsSnapshot, Fleet) {
        let local = StatsSnapshot {
            queue_depth: queue_depth as u64,
            trace_dropped: self.trace_log.as_ref().map_or(0, |log| log.dropped()),
            ..StatsSnapshot::default()
        };
        let bodies = self.shards.iter().filter_map(|slot| {
            match self.forward(slot, "GET", "/v1/stats", b"", None) {
                Ok((200, body)) => Some(body),
                _ => None,
            }
        });
        let (stats, shards_up) = merge_shard_stats(local, bodies);
        let fleet = Fleet {
            shards: self.shards.len(),
            shards_up,
            restarts: self.supervisor.restarts(),
            pids: (0..self.shards.len())
                .filter_map(|index| self.supervisor.child_pid(index))
                .collect(),
        };
        (stats, fleet)
    }
}

/// Merges every shard stats body that decodes into `local`, returning
/// the fleet snapshot and how many shards it counts.
fn merge_shard_stats(
    mut local: StatsSnapshot,
    bodies: impl IntoIterator<Item = String>,
) -> (StatsSnapshot, usize) {
    let shards: Vec<StatsSnapshot> = bodies
        .into_iter()
        .filter_map(|body| StatsSnapshot::from_json(&body).ok())
        .collect();
    shards.iter().for_each(|shard| local.merge(shard));
    (local, shards.len())
}

impl Handler for Router {
    fn handle(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
        ctx: &RequestContext,
    ) -> (u16, String) {
        let timer = Timer::start();
        // The router is the fleet's entry point, so ctx.trace is normally
        // empty here and the id is derived; a forwarded id still wins so
        // layered routers chain.
        let trace = ctx.trace.unwrap_or_else(|| {
            derive_trace_id(body, self.trace_seq.fetch_add(1, Ordering::Relaxed))
        });
        let path = route_path(target);
        let (status, answer) = match (method, path) {
            // Answered locally with the exact bytes a single-process
            // server produces, so health checks and error probes are
            // byte-identical through the proxy.
            ("GET", "/v1/healthz") => (200, r#"{"status": "ok"}"#.to_string()),
            ("GET", "/v1/stats") => {
                let (stats, fleet) = self.fleet_stats(ctx.queue_depth);
                (200, stats.to_json(Some(&fleet)))
            }
            ("GET", "/v1/metrics") => {
                let (stats, fleet) = self.fleet_stats(ctx.queue_depth);
                (200, stats.to_exposition(Some(&fleet)))
            }
            ("POST", "/v1/place") => {
                let shard = self.ring.shard_for(place_shard_key(body));
                self.proxy(shard, "POST", "/v1/place", body, trace)
            }
            (_, "/v1/healthz" | "/v1/stats" | "/v1/metrics" | "/v1/place") => (
                405,
                error_body(&format!("method {method} not allowed here")),
            ),
            _ => (404, error_body(&format!("no such route '{path}'"))),
        };
        if let Some(log) = &self.trace_log {
            // Router events carry only the router's own transport spans
            // (the solve stages are measured on the shard that solved);
            // the shared trace id is the join key.
            log.push(event_line(
                trace,
                path,
                status,
                timer.elapsed_us(),
                &ctx.spans(),
            ));
        }
        (status, answer)
    }

    /// Flush the trace ring once the response bytes are on the wire.
    fn after_response(&self) {
        if let Some(log) = &self.trace_log {
            log.flush();
        }
    }

    /// Tear the worker fleet down once the router's own pool has drained,
    /// then flush whatever the trace ring still holds.
    fn on_shutdown(&self) {
        self.shutdown_workers();
        if let Some(log) = &self.trace_log {
            log.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_shard_key_is_the_canonical_hash_for_valid_bodies() {
        let spec = pv_gis::ScenarioSpec::generate(2018, 3);
        let key = place_shard_key(spec.to_spec_string().as_bytes());
        assert_eq!(key, spec.canonical_hash());
    }

    #[test]
    fn place_shard_key_hashes_raw_bytes_for_malformed_bodies() {
        let body = b"{ not json";
        assert_eq!(place_shard_key(body), fnv1a(body));
        // Deterministic: same bytes, same key.
        assert_eq!(place_shard_key(body), place_shard_key(body));
    }

    /// A shard's `/v1/stats` body with the given trace drops and one
    /// recorded request latency.
    fn shard_body(trace_dropped: u64, latency_us: u64) -> String {
        let mut shard = StatsSnapshot {
            place_ok: 1,
            trace_dropped,
            ..StatsSnapshot::default()
        };
        shard.latency.record(latency_us);
        shard.to_json(None)
    }

    #[test]
    fn fleet_stats_count_the_routers_own_trace_drops() {
        let local = StatsSnapshot {
            trace_dropped: 7,
            queue_depth: 4,
            ..StatsSnapshot::default()
        };
        let bodies = vec![
            shard_body(2, 1_000),
            "garbage".to_string(),
            shard_body(3, 9_000),
        ];
        let (fleet, up) = merge_shard_stats(local, bodies);
        assert_eq!(up, 2, "an undecodable body is not a live shard");
        assert_eq!(fleet.trace_dropped, 2 + 3 + 7);
        assert_eq!(fleet.place_ok, 2);
        assert_eq!(fleet.queue_depth, 4);
        assert_eq!(fleet.latency.count(), 2);

        let json = pv_json::parse(&fleet.to_json(None)).unwrap();
        assert_eq!(
            json.get("trace_dropped").and_then(|v| v.as_number()),
            Some(12.0)
        );
        assert!(fleet
            .to_exposition(None)
            .contains("\npv_trace_dropped_total 12\n"));
    }

    #[test]
    fn fleet_stats_keys_are_a_superset_of_the_published_schema() {
        let (stats, _) = merge_shard_stats(StatsSnapshot::default(), vec![shard_body(0, 500)]);
        let fleet = Fleet {
            shards: 1,
            shards_up: 1,
            restarts: 0,
            pids: vec![1234],
        };
        let doc = pv_json::parse(&stats.to_json(Some(&fleet))).unwrap();
        for key in [
            "requests",
            "place_ok",
            "errors",
            "cache_hits",
            "cache_misses",
            "cache_entries",
            "cache_bytes",
            "cache_budget_bytes",
            "store_hits",
            "store_hydrated",
            "store_quarantined",
            "store_skipped",
            "store_writes",
            "store_write_errors",
            "trace_dropped",
            "cache_hit_rate",
            "store_hit_rate",
            "queue_depth",
            "p50_ms",
            "p99_ms",
            "shards",
            "shards_up",
            "shard_restarts",
            "shard_pids",
            "latency_hist",
            "stage_hists",
        ] {
            assert!(doc.get(key).is_some(), "router /v1/stats lost '{key}'");
        }
    }

    #[test]
    fn router_refuses_unroutable_paths_with_service_identical_bodies() {
        // Pure-function check on the local (non-proxied) routes: no
        // workers needed. Build a router-shaped handler via the parts
        // that do not require processes — here just the error renderers.
        assert_eq!(
            error_body("no such route '/nope'"),
            r#"{"error": "no such route '/nope'"}"#
        );
    }
}
