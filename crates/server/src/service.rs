//! The service core: request parsing, per-site cache, solve dispatch and
//! response rendering — everything except the TCP transport, so the same
//! [`PlacementService`] can be embedded in-process (tests call
//! [`PlacementService::handle`] directly) or served by [`crate::Server`].

use crate::cache::{CachedSite, SiteCache};
use crate::server::{route_path, RequestContext};
use crate::stats::{ServiceStats, StatsSnapshot};
use pv_floorplan::{
    fit_topology, EnergyReport, FloorplanConfig, FloorplanResult, Placer, PlacerOptions,
    SuitabilityMap,
};
use pv_gis::synth::fnv1a;
use pv_gis::ScenarioSpec;
use pv_json::{JsonValue, ObjectBuilder};
use pv_model::Topology;
use pv_obs::{derive_trace_id, event_line, Stage, StageTimes, Timer, TraceLog};
use pv_runtime::Runtime;
use pv_store::{SiteStore, SnapshotMeta};
use pv_units::SimulationClock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Deterministic tuning of a [`PlacementService`].
///
/// Everything here is part of the *response identity*: two services with
/// the same config answer any request with the same bytes. (Cache size is
/// the one exception — it only changes which requests are fast.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Simulated days per request (requests may override).
    pub days: u32,
    /// Clock step in minutes (requests may override).
    pub step_minutes: u32,
    /// Horizon azimuth sectors used at extraction.
    pub horizon_sectors: usize,
    /// Byte budget of the per-site LRU cache.
    pub cache_bytes: usize,
    /// Upper bound on modules per placement.
    pub max_modules: usize,
    /// Proposals per annealing chain (`"placer": "anneal"`).
    pub anneal_iterations: u32,
    /// Node budget of the exhaustive search (`"placer": "exact"`).
    pub exact_budget: u64,
}

impl ServiceConfig {
    /// Production-flavoured defaults: 30-day hourly clock, 64 horizon
    /// sectors, 256 MiB site cache.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            days: 30,
            step_minutes: 60,
            horizon_sectors: 64,
            cache_bytes: 256 << 20,
            max_modules: 16,
            anneal_iterations: 120,
            exact_budget: 20_000,
        }
    }

    /// CI-smoke scale: 2-day coarse clock, small topologies.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            days: 2,
            step_minutes: 120,
            horizon_sectors: 16,
            cache_bytes: 64 << 20,
            max_modules: 8,
            anneal_iterations: 40,
            exact_budget: 2_000,
        }
    }

    /// Unit-test scale: the cheapest clock that still exercises every
    /// code path.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            days: 1,
            step_minutes: 240,
            horizon_sectors: 8,
            cache_bytes: 32 << 20,
            max_modules: 4,
            anneal_iterations: 6,
            exact_budget: 500,
        }
    }

    /// Overrides the cache budget (the `--cache-mb` CLI path).
    #[must_use]
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }
}

/// A parsed `/v1/place` request.
///
/// The body is either a bare spec string (`pvscn index=… seed=… …`) or a
/// JSON object:
///
/// ```json
/// {"spec": "pvscn …", "placer": "anneal", "series": 2, "strings": 2,
///  "seed": 7, "days": 2, "step": 120}
/// ```
///
/// Only `spec` is required; `series`/`strings` come as a pair.
#[derive(Clone, Debug, PartialEq)]
pub struct PlaceRequest {
    /// The site to place on.
    pub spec: ScenarioSpec,
    /// Which placer to run (default greedy).
    pub placer: Placer,
    /// Explicit `(series, strings)` topology; `None` walks
    /// `pv_floorplan::TOPOLOGY_LADDER`.
    pub topology: Option<(usize, usize)>,
    /// Annealing seed override; default is the spec's own seed.
    pub seed: Option<u64>,
    /// Clock override: simulated days.
    pub days: Option<u32>,
    /// Clock override: step minutes.
    pub step: Option<u32>,
}

impl PlaceRequest {
    /// Parses a request body (spec string or JSON object).
    ///
    /// # Errors
    ///
    /// Returns a client-safe description of the first problem: malformed
    /// JSON, unknown fields, a bad spec string, a non-integer number.
    pub fn parse(body: &str) -> Result<Self, String> {
        let trimmed = body.trim();
        if !trimmed.starts_with('{') {
            return Ok(Self {
                spec: ScenarioSpec::parse_spec_string(trimmed).map_err(|e| format!("spec: {e}"))?,
                placer: Placer::Greedy,
                topology: None,
                seed: None,
                days: None,
                step: None,
            });
        }
        let value = pv_json::parse(trimmed).map_err(|e| format!("request body: {e}"))?;
        let JsonValue::Object(fields) = &value else {
            return Err("request body must be a JSON object or a spec string".into());
        };
        const KNOWN: [&str; 7] = [
            "spec", "placer", "series", "strings", "seed", "days", "step",
        ];
        if let Some((unknown, _)) = fields.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err(format!("unknown request field '{unknown}'"));
        }
        let spec_text = value
            .get("spec")
            .and_then(JsonValue::as_str)
            .ok_or("request needs a string field 'spec'")?;
        let spec = ScenarioSpec::parse_spec_string(spec_text).map_err(|e| format!("spec: {e}"))?;
        let placer = match value.get("placer") {
            None => Placer::Greedy,
            Some(v) => {
                let name = v.as_str().ok_or("'placer' must be a string")?;
                Placer::from_name(name).ok_or_else(|| {
                    format!("unknown placer '{name}' (expected greedy, anneal or exact)")
                })?
            }
        };
        let topology = match (
            uint_field(&value, "series")?,
            uint_field(&value, "strings")?,
        ) {
            (None, None) => None,
            (Some(m), Some(n)) => Some((m as usize, n as usize)),
            _ => return Err("'series' and 'strings' must be given together".into()),
        };
        // Range-check rather than truncate: 2^32+30 must be an error,
        // not a silent 30-day simulation.
        let u32_field = |key: &str| -> Result<Option<u32>, String> {
            uint_field(&value, key)?
                .map(|x| u32::try_from(x).map_err(|_| format!("'{key}' is out of range, got {x}")))
                .transpose()
        };
        Ok(Self {
            spec,
            placer,
            topology,
            seed: uint_field(&value, "seed")?,
            days: u32_field("days")?,
            step: u32_field("step")?,
        })
    }
}

/// Reads an optional non-negative integer field (JSON numbers are `f64`;
/// anything fractional, negative or above 2^53 is rejected, not rounded).
fn uint_field(value: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => {
            let x = v
                .as_number()
                .ok_or_else(|| format!("'{key}' must be a number"))?;
            if x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0 {
                Ok(Some(x as u64))
            } else {
                Err(format!("'{key}' must be a non-negative integer, got {x}"))
            }
        }
    }
}

/// The site-cache key: a hash of the canonical spec string and the full
/// extraction configuration, so two requests share an entry exactly when
/// extraction would produce identical data. Snapshot hydration recomputes
/// the same key from the [`SnapshotMeta`] a site is persisted under.
fn cache_key(meta: &SnapshotMeta) -> u64 {
    let SnapshotMeta { spec, days, .. } = meta;
    let (step, horizon) = (meta.step_minutes, meta.horizon_sectors);
    fnv1a(format!("{spec} days={days} step={step} horizon={horizon}").as_bytes())
}

/// The embeddable placement service (see the crate docs for the
/// determinism contract).
pub struct PlacementService {
    config: ServiceConfig,
    cache: Mutex<SiteCache>,
    stats: ServiceStats,
    /// Optional snapshot store (`serve --store-dir`). Persistence is
    /// strictly a latency feature: hydration seeds the cache, cold misses
    /// are written behind, and response bytes never depend on it.
    store: Option<Arc<SiteStore>>,
    /// Optional structured trace log (`serve --trace-log`). Purely
    /// observability: events are ring-buffered here and flushed after
    /// responses are on the wire.
    trace_log: Option<Arc<TraceLog>>,
    /// Entry-point sequence for request-derived trace ids (requests
    /// arriving without a forwarded id).
    trace_seq: AtomicU64,
}

impl PlacementService {
    /// A fresh service with an empty site cache and no snapshot store.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            cache: Mutex::new(SiteCache::new(config.cache_bytes)),
            config,
            stats: ServiceStats::new(),
            store: None,
            trace_log: None,
            trace_seq: AtomicU64::new(0),
        }
    }

    /// Attaches a snapshot store: cold extractions are persisted via the
    /// store's write-behind queue and [`hydrate_store`](Self::hydrate_store)
    /// can pre-seed the cache from disk.
    #[must_use]
    pub fn with_store(mut self, store: Arc<SiteStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches a structured trace log (`serve --trace-log`): one JSONL
    /// event per request, flushed off the request path.
    #[must_use]
    pub fn with_trace_log(mut self, log: Arc<TraceLog>) -> Self {
        self.trace_log = Some(log);
        self
    }

    /// The attached snapshot store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<SiteStore>> {
        self.store.as_ref()
    }

    /// The attached trace log, if any.
    #[must_use]
    pub fn trace_log(&self) -> Option<&Arc<TraceLog>> {
        self.trace_log.as_ref()
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The live counters (`/v1/stats` reads these).
    #[must_use]
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Loads every decodable snapshot from the attached store into the
    /// site cache and returns how many entries were seeded. Damaged files
    /// are quarantined by the store; valid snapshots whose extraction
    /// horizon differs from this service's configuration are counted as
    /// skipped (their cache key could never be requested here). A service
    /// without a store hydrates zero entries.
    ///
    /// # Errors
    ///
    /// The store directory being unlistable, or a poisoned cache lock.
    pub fn hydrate_store(&self) -> Result<usize, String> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        // Hydration happens once per process life, before traffic; its
        // duration is recorded as one `store_hydrate` span so the warm
        // state's cost is visible next to the work it saves.
        let timer = Timer::start();
        let snapshots = store.hydrate().map_err(|e| e.to_string())?;
        let mut seeded = 0;
        for snap in snapshots {
            if snap.meta.horizon_sectors as usize != self.config.horizon_sectors {
                store.counters().note_skipped();
                continue;
            }
            let key = cache_key(&snap.meta);
            let site = CachedSite::new(snap.dataset, snap.map, true);
            self.cache
                .lock()
                .map_err(|_| "site cache lock poisoned".to_string())?
                .insert(key, site);
            seeded += 1;
        }
        let mut times = StageTimes::default();
        times.add(Stage::StoreHydrate, timer.elapsed_us());
        self.stats.update(|stats| stats.stages.record(&times));
        Ok(seeded)
    }

    /// Pre-warms the store for one site at the service's default clock:
    /// builds the site, validates it end to end with a greedy solve and
    /// commits the snapshot synchronously, once. Returns `false` without
    /// doing any work when a committed snapshot already exists.
    ///
    /// # Errors
    ///
    /// No store attached, the solve failing, or the commit failing.
    pub fn prewarm(&self, spec: &ScenarioSpec) -> Result<bool, String> {
        let Some(store) = &self.store else {
            return Err("pre-warming needs a snapshot store (--store-dir)".into());
        };
        let (days, step) = (self.config.days, self.config.step_minutes);
        let meta = self.snapshot_meta(spec, days, step);
        let key = cache_key(&meta);
        if store.contains(key) {
            return Ok(false);
        }
        // The solve validates the site end to end: a site no placer can
        // serve fails here rather than on its first request. The
        // snapshot's bytes do not depend on it. The bare spec string
        // parses as the default greedy request.
        let (request, mut spans) = (PlaceRequest::parse(&meta.spec)?, StageTimes::default());
        let (site, _) = self
            .site_for(spec, days, step, &mut spans)
            .map_err(|(_, body)| body)?;
        self.solve(&request, days, step, &site, &mut spans)
            .map_err(|(_, body)| body)?;
        store
            .save(key, &meta, &site.dataset, &site.map)
            .map_err(|e| e.to_string())?;
        Ok(true)
    }

    /// Drains the attached store's write-behind queue (no-op without a
    /// store). Call on shutdown so accepted writes reach disk.
    pub fn drain_store(&self) {
        if let Some(store) = &self.store {
            store.drain();
        }
    }

    /// Routes one request and produces `(status, JSON body)`.
    ///
    /// The [`RequestContext`] carries the transport backlog (surfaced in
    /// `/v1/stats`) and an optional forwarded trace id; pass
    /// `&RequestContext::default()` when embedding without a transport.
    /// Observability happens around this routing — timing, stage spans,
    /// the trace-log event — and never inside a response body.
    #[must_use]
    pub fn handle(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
        ctx: &RequestContext,
    ) -> (u16, String) {
        self.stats.update(|stats| stats.requests += 1);
        let timer = Timer::start();
        let mut spans = ctx.spans();
        let path = route_path(target);
        let (status, response) = match (method, path) {
            ("GET", "/v1/healthz") => (200, r#"{"status": "ok"}"#.to_string()),
            ("GET", "/v1/stats") => (200, self.snapshot(ctx.queue_depth).to_json(None)),
            ("GET", "/v1/metrics") => (200, self.snapshot(ctx.queue_depth).to_exposition(None)),
            ("POST", "/v1/place") => match core::str::from_utf8(body) {
                Err(_) => (400, error_body("request body must be UTF-8")),
                Ok(text) => match self.place_traced(text, &mut spans) {
                    Ok((response, cache_hit)) => {
                        let latency_us = timer.elapsed_us();
                        self.stats.update(|stats| {
                            stats.place_ok += 1;
                            if cache_hit {
                                stats.cache_hits += 1;
                            } else {
                                stats.cache_misses += 1;
                            }
                            stats.latency.record(latency_us);
                            stats.stages.record(&spans);
                        });
                        (200, response)
                    }
                    Err((status, body)) => (status, body),
                },
            },
            (_, "/v1/healthz" | "/v1/stats" | "/v1/metrics" | "/v1/place") => (
                405,
                error_body(&format!("method {method} not allowed here")),
            ),
            _ => (404, error_body(&format!("no such route '{path}'"))),
        };
        if status >= 400 {
            self.stats.update(|stats| stats.errors += 1);
        }
        if let Some(log) = &self.trace_log {
            // Forwarded id (router→shard) or a fresh request-derived one.
            let trace = ctx.trace.unwrap_or_else(|| {
                derive_trace_id(body, self.trace_seq.fetch_add(1, Ordering::Relaxed))
            });
            log.push(event_line(trace, path, status, timer.elapsed_us(), &spans));
        }
        (status, response)
    }

    /// Solves one `/v1/place` body. Returns the response body and whether
    /// the site came warm from the cache; errors carry their HTTP status.
    ///
    /// # Errors
    ///
    /// `400` for malformed requests, `422` for well-formed requests that
    /// are infeasible (topology does not fit, exact search over budget).
    pub fn place(&self, body: &str) -> Result<(String, bool), (u16, String)> {
        self.place_traced(body, &mut StageTimes::default())
    }

    /// [`place`](Self::place) with per-stage span recording into `spans`.
    /// The spans are pure observability: the solve takes exactly the same
    /// path, and the response bytes cannot depend on the recordings.
    fn place_traced(
        &self,
        body: &str,
        spans: &mut StageTimes,
    ) -> Result<(String, bool), (u16, String)> {
        let request = PlaceRequest::parse(body).map_err(|e| (400, error_body(&e)))?;
        let days = request.days.unwrap_or(self.config.days);
        let step = request.step.unwrap_or(self.config.step_minutes);
        if days == 0 || days > 365 {
            return Err((400, error_body("'days' must be in 1..=365")));
        }
        if step == 0 || !1440u32.is_multiple_of(step) {
            return Err((
                400,
                error_body("'step' must divide the 1440-minute day evenly"),
            ));
        }

        let (site, cache_hit) = self.site_for(&request.spec, days, step, spans)?;
        // Persist a cold build behind the response. The snapshot holds
        // only the extraction artifacts, which are immutable once built,
        // so its bytes do not depend on when the writer thread runs.
        if let (Some(store), false) = (&self.store, cache_hit) {
            let meta = self.snapshot_meta(&request.spec, days, step);
            store.save_behind(
                cache_key(&meta),
                meta,
                Arc::clone(&site.dataset),
                Arc::clone(&site.map),
            );
        }
        let response = self.solve(&request, days, step, &site, spans)?;
        Ok((response, cache_hit))
    }

    /// Resolves `request`'s topology, runs its placer on `site`'s warm
    /// memo and renders the response body for the `days`/`step` clock.
    fn solve(
        &self,
        request: &PlaceRequest,
        days: u32,
        step: u32,
        site: &CachedSite,
        spans: &mut StageTimes,
    ) -> Result<String, (u16, String)> {
        let memo_timer = Timer::start();
        let config = self.choose_config(site, request.topology)?;
        spans.add(Stage::MemoWarm, memo_timer.elapsed_us());
        let options = PlacerOptions {
            anneal_iterations: self.config.anneal_iterations,
            // Deterministic per-request seed: the caller's override, or the
            // spec's own seed — never ambient state.
            seed: request.seed.unwrap_or(request.spec.seed),
            exact_budget: self.config.exact_budget,
        };
        let solve_timer = Timer::start();
        let solved = request
            .placer
            .place_with_memo(
                &site.dataset,
                &config,
                &site.map,
                &options,
                Runtime::sequential(),
                &site.memo,
            )
            .map_err(|e| (422, error_body(&format!("placement failed: {e}"))))?;
        spans.add(Stage::Solve, solve_timer.elapsed_us());

        let encode_timer = Timer::start();
        let response =
            render_place_response(request, days, step, options.seed, &config, site, &solved);
        spans.add(Stage::Encode, encode_timer.elapsed_us());
        Ok(response)
    }

    /// The identity a site is cached and persisted under.
    fn snapshot_meta(&self, spec: &ScenarioSpec, days: u32, step: u32) -> SnapshotMeta {
        SnapshotMeta {
            spec: spec.to_spec_string(),
            days,
            step_minutes: step,
            horizon_sectors: self.config.horizon_sectors as u32,
        }
    }

    /// Warm lookup or cold build (cached, not persisted) of a site's state;
    /// the flag says whether it was warm.
    ///
    /// Two racing cold requests for the same site may both extract; the
    /// later insert replaces the earlier identical entry, and both
    /// requests answer from their own (identical) data — correctness
    /// never depends on winning the race.
    ///
    /// # Errors
    ///
    /// `500` when a cache lock is poisoned — an internal state a request
    /// must answer, not panic on.
    fn site_for(
        &self,
        spec: &ScenarioSpec,
        days: u32,
        step: u32,
        spans: &mut StageTimes,
    ) -> Result<(CachedSite, bool), (u16, String)> {
        let lookup_timer = Timer::start();
        let key = cache_key(&self.snapshot_meta(spec, days, step));
        let warm = self
            .cache
            .lock()
            .map_err(|_| internal_error("site cache lock poisoned"))?
            .get(key);
        spans.add(Stage::CacheLookup, lookup_timer.elapsed_us());
        if let Some(site) = warm {
            if site.from_store {
                self.stats.update(|stats| stats.store_hits += 1);
            }
            return Ok((site, true));
        }
        let extract_timer = Timer::start();
        let scenario = spec.build();
        let clock = SimulationClock::days_at_minutes(days, step);
        let dataset = scenario
            .extractor(clock)
            .horizon_sectors(self.config.horizon_sectors)
            .runtime(Runtime::sequential())
            .extract(&scenario.dsm);
        spans.add(Stage::Extract, extract_timer.elapsed_us());
        let suitability_timer = Timer::start();
        let map = SuitabilityMap::paper(&dataset, Runtime::sequential());
        spans.add(Stage::Suitability, suitability_timer.elapsed_us());
        let site = CachedSite::new(dataset, map, false);
        self.cache
            .lock()
            .map_err(|_| internal_error("site cache lock poisoned"))?
            .insert(key, site.clone());
        Ok((site, false))
    }

    /// Resolves the request's topology: explicit pair, or the ladder
    /// topology [`fit_topology`] picks for the site.
    fn choose_config(
        &self,
        site: &CachedSite,
        explicit: Option<(usize, usize)>,
    ) -> Result<FloorplanConfig, (u16, String)> {
        if let Some((m, n)) = explicit {
            let topology = Topology::new(m, n)
                .map_err(|e| (400, error_body(&format!("bad topology: {e}"))))?;
            if topology.num_modules() > self.config.max_modules {
                return Err((
                    400,
                    error_body(&format!(
                        "topology {m}x{n} exceeds the service limit of {} modules",
                        self.config.max_modules
                    )),
                ));
            }
            return FloorplanConfig::paper(topology)
                .map_err(|e| (400, error_body(&format!("bad topology: {e}"))));
        }
        // The ladder outcome is a pure function of (site, max_modules);
        // memoize it in the cache entry so only the first request on a
        // site pays the greedy fit probe.
        site.ladder_choice
            .get_or_init(|| fit_topology(&site.dataset, &site.map, self.config.max_modules))
            .clone()
            .ok_or_else(|| {
                (
                    422,
                    error_body("no ladder topology fits this site (roof too encumbered)"),
                )
            })
    }

    /// Fills the one stats snapshot both `/v1/stats` and `/v1/metrics`
    /// render: the recorded counters and histograms, the cache gauges,
    /// the store counters (zero without a store, so the schema is stable
    /// either way), the transport backlog and the trace-log drops. A
    /// poisoned cache lock still yields its gauges: stats keep answering
    /// when something else has failed.
    fn snapshot(&self, queue_depth: usize) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        {
            let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            snap.cache_entries = cache.len() as u64;
            snap.cache_bytes = cache.bytes() as u64;
            snap.cache_budget_bytes = cache.budget_bytes() as u64;
        }
        if let Some(store) = &self.store {
            let counters = store.counters();
            snap.store_hydrated = counters.hydrated();
            snap.store_quarantined = counters.quarantined();
            snap.store_skipped = counters.skipped();
            snap.store_writes = counters.writes();
            snap.store_write_errors = counters.write_errors();
        }
        snap.queue_depth = queue_depth as u64;
        snap.trace_dropped = self.trace_log.as_ref().map_or(0, |log| log.dropped());
        snap
    }
}

impl crate::server::Handler for PlacementService {
    fn handle(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
        ctx: &RequestContext,
    ) -> (u16, String) {
        PlacementService::handle(self, method, target, body, ctx)
    }

    /// Drain the trace-log ring now that the response bytes are on the
    /// wire — the flush can never sit on a request's critical path.
    fn after_response(&self) {
        if let Some(log) = &self.trace_log {
            log.flush();
        }
    }

    /// Flush pending snapshot writes (and any buffered trace events)
    /// once the worker pool has drained.
    fn on_shutdown(&self) {
        self.drain_store();
        if let Some(log) = &self.trace_log {
            log.flush();
        }
    }
}

/// `{"error": msg}`.
///
/// `pub(crate)` so the router renders its locally-answered error routes
/// (404/405/503) with the exact same bytes as a single-process server.
pub(crate) fn error_body(msg: &str) -> String {
    ObjectBuilder::new()
        .field("error", msg)
        .build()
        .to_json_string()
}

/// `500` with a structured body, for states that should be unreachable
/// (a poisoned cache lock): the client still gets an answer instead of
/// the worker panicking mid-connection. Like every error body, it
/// carries no timing or cache metadata.
fn internal_error(msg: &str) -> (u16, String) {
    (500, error_body(&format!("internal: {msg}")))
}

/// Renders the deterministic `/v1/place` response body: request identity
/// (spec key, placer, clock, seed), chosen topology, energy report, and
/// every module anchor. **No timing, no cache state** — the body must be
/// a pure function of the request.
fn render_place_response(
    request: &PlaceRequest,
    days: u32,
    step: u32,
    seed: u64,
    config: &FloorplanConfig,
    site: &CachedSite,
    (plan, report): &(FloorplanResult, EnergyReport),
) -> String {
    let modules: Vec<JsonValue> = plan
        .placement
        .modules()
        .iter()
        .map(|m| JsonValue::Array(vec![m.anchor.x.into(), m.anchor.y.into()]))
        .collect();
    ObjectBuilder::new()
        .field("name", request.spec.name())
        .field(
            "spec_key",
            format!("{:016x}", request.spec.canonical_hash()),
        )
        .field("placer", request.placer.name())
        .field("days", days)
        .field("step", step)
        // Seeds are full u64s; a JSON number (f64) cannot carry them
        // exactly, so the seed travels as a string.
        .field("seed", seed.to_string())
        .field("series", config.topology().series())
        .field("strings", config.topology().strings())
        .field("ng", site.dataset.valid().count())
        .field("energy_wh", pv_json::rounded(report.energy.as_wh(), 3))
        .field("gross_wh", pv_json::rounded(report.gross_energy.as_wh(), 3))
        .field(
            "wiring_loss_wh",
            pv_json::rounded(report.wiring_loss.as_wh(), 3),
        )
        .field(
            "mismatch_percent",
            pv_json::rounded(report.mismatch_fraction() * 100.0, 4),
        )
        .field(
            "extra_wire_m",
            pv_json::rounded(report.extra_wire.as_meters(), 2),
        )
        .field("modules", JsonValue::Array(modules))
        .build()
        .to_json_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_body(index: u32) -> String {
        ScenarioSpec::generate(2018, index).to_spec_string()
    }

    fn service() -> PlacementService {
        PlacementService::new(ServiceConfig::tiny())
    }

    #[test]
    fn raw_spec_body_parses_with_defaults() {
        let req = PlaceRequest::parse(&spec_body(0)).unwrap();
        assert_eq!(req.placer, Placer::Greedy);
        assert_eq!(req.topology, None);
        assert_eq!(req.seed, None);
    }

    #[test]
    fn json_body_parses_every_field() {
        let body = format!(
            r#"{{"spec": "{}", "placer": "anneal", "series": 2, "strings": 1,
                "seed": 9, "days": 1, "step": 240}}"#,
            spec_body(1)
        );
        let req = PlaceRequest::parse(&body).unwrap();
        assert_eq!(req.placer, Placer::Anneal);
        assert_eq!(req.topology, Some((2, 1)));
        assert_eq!(req.seed, Some(9));
        assert_eq!((req.days, req.step), (Some(1), Some(240)));
    }

    #[test]
    fn request_parse_rejects_garbage() {
        for (body, why) in [
            ("nonsense", "bad spec string"),
            ("{\"placer\": \"greedy\"}", "missing spec"),
            (r#"{"spec": "pvscn index=1"}"#, "truncated spec"),
            (r#"{"spec": 3}"#, "non-string spec"),
            ("{\"spec\": \"pvscn\", \"bogus\": 1}", "unknown field"),
            ("{", "malformed JSON"),
        ] {
            assert!(PlaceRequest::parse(body).is_err(), "accepted {why}");
        }
        let with = |extra: &str| format!(r#"{{"spec": "{}", {extra}}}"#, spec_body(0));
        assert!(PlaceRequest::parse(&with(r#""placer": "oracle""#)).is_err());
        assert!(
            PlaceRequest::parse(&with(r#""series": 2"#)).is_err(),
            "half a topology"
        );
        assert!(PlaceRequest::parse(&with(r#""seed": 1.5"#)).is_err());
        assert!(PlaceRequest::parse(&with(r#""seed": -1"#)).is_err());
        // 2^32 + 30 must be rejected, not truncated to a 30-day clock.
        let err = PlaceRequest::parse(&with(r#""days": 4294967326"#)).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn place_solves_and_repeats_bit_identically_from_the_warm_cache() {
        let service = service();
        let body = spec_body(0);
        let (cold, hit_cold) = service.place(&body).unwrap();
        let (warm, hit_warm) = service.place(&body).unwrap();
        assert!(!hit_cold);
        assert!(hit_warm, "repeat request must hit the site cache");
        assert_eq!(cold, warm, "cache warmth must not change response bytes");
        let parsed = pv_json::parse(&cold).unwrap();
        assert!(parsed.get("energy_wh").unwrap().as_number().unwrap() > 0.0);
        assert!(parsed.get("ng").unwrap().as_number().unwrap() > 0.0);
        assert!(!parsed
            .get("modules")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        // No timing or cache fields in the deterministic body.
        assert!(parsed.get("wall_ms").is_none());
        assert!(parsed.get("cache").is_none());
    }

    #[test]
    fn cold_requests_span_the_suitability_map_and_warm_ones_do_not() {
        let service = service();
        let body = spec_body(0);
        let mut cold = StageTimes::default();
        let (_, hit) = service.place_traced(&body, &mut cold).unwrap();
        assert!(!hit);
        assert!(cold.get(Stage::Extract).is_some());
        assert!(cold.get(Stage::Suitability).is_some(), "cold map unspanned");
        let mut warm = StageTimes::default();
        let (_, hit) = service.place_traced(&body, &mut warm).unwrap();
        assert!(hit);
        assert_eq!(
            warm.get(Stage::Suitability),
            None,
            "warm request rebuilt the map"
        );
        assert_eq!(warm.get(Stage::Extract), None);
    }

    fn depth(queue_depth: usize) -> RequestContext {
        RequestContext {
            queue_depth,
            ..RequestContext::default()
        }
    }

    #[test]
    fn handle_routes_and_counts() {
        let service = service();
        let (status, _) = service.handle("GET", "/v1/healthz", b"", &depth(0));
        assert_eq!(status, 200);
        let (status, _) = service.handle("POST", "/v1/healthz", b"", &depth(0));
        assert_eq!(status, 405);
        let (status, _) = service.handle("GET", "/nope", b"", &depth(0));
        assert_eq!(status, 404);
        let (status, body) = service.handle("POST", "/v1/place", b"garbage", &depth(0));
        assert_eq!(status, 400, "{body}");
        let (status, body) =
            service.handle("POST", "/v1/place", spec_body(0).as_bytes(), &depth(3));
        assert_eq!(status, 200, "{body}");
        let (status, stats) = service.handle("GET", "/v1/stats", b"", &depth(3));
        assert_eq!(status, 200);
        let stats = pv_json::parse(&stats).unwrap();
        // The stats request counts itself: it is routed before rendering.
        assert_eq!(stats.get("requests").unwrap().as_number(), Some(6.0));
        assert_eq!(stats.get("errors").unwrap().as_number(), Some(3.0));
        assert_eq!(stats.get("cache_misses").unwrap().as_number(), Some(1.0));
        assert_eq!(stats.get("cache_entries").unwrap().as_number(), Some(1.0));
        assert_eq!(stats.get("queue_depth").unwrap().as_number(), Some(3.0));
        // The histogram encodings ride along in the stats body.
        let hist = pv_obs::Histogram::from_sparse(stats.get("latency_hist").unwrap());
        assert_eq!(hist.map(|h| h.count()), Some(1));
        let stages = pv_obs::StageHistograms::from_sparse(stats.get("stage_hists").unwrap())
            .expect("stage_hists decodes");
        assert_eq!(stages.get(Stage::Solve).count(), 1);
        assert_eq!(
            stages.get(Stage::Extract).count(),
            1,
            "cold solve extracted"
        );
    }

    #[test]
    fn metrics_endpoint_exposes_counters_and_histograms() {
        let service = service();
        let (status, body) =
            service.handle("POST", "/v1/place", spec_body(0).as_bytes(), &depth(0));
        assert_eq!(status, 200, "{body}");
        let (status, _) = service.handle("POST", "/v1/metrics", b"", &depth(0));
        assert_eq!(status, 405, "metrics is GET-only");
        let (status, text) = service.handle("GET", "/v1/metrics", b"", &depth(2));
        assert_eq!(status, 200);
        assert!(text.starts_with("# HELP"), "{text}");
        assert!(
            text.contains("# TYPE pv_place_latency_us histogram"),
            "{text}"
        );
        assert!(text.contains("pv_place_ok_total 1"), "{text}");
        assert!(text.contains("pv_queue_depth 2"), "{text}");
        assert!(
            text.contains("pv_stage_us_bucket{stage=\"solve\""),
            "{text}"
        );
        assert!(
            text.contains("pv_place_latency_us_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        // The deterministic response body itself never carries metrics:
        // the place response from above parses as a placement and has no
        // timing fields (pinned elsewhere); here we pin the reverse — the
        // exposition is not JSON and cannot be confused for a response.
        assert!(pv_json::parse(&text).is_err());
    }

    #[test]
    fn trace_log_records_spans_and_respects_forwarded_ids() {
        let path = std::env::temp_dir().join(format!(
            "pv-service-trace-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let log = Arc::new(TraceLog::create(&path).expect("create trace log"));
        let service = PlacementService::new(ServiceConfig::tiny()).with_trace_log(Arc::clone(&log));
        let forwarded = RequestContext {
            trace: Some(0xabcd),
            ..RequestContext::default()
        };
        let (status, body) =
            service.handle("POST", "/v1/place", spec_body(0).as_bytes(), &forwarded);
        assert_eq!(status, 200, "{body}");
        let (status, _) = service.handle("GET", "/v1/healthz", b"", &depth(0));
        assert_eq!(status, 200);
        log.flush();

        let text = std::fs::read_to_string(&path).expect("read trace log");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let place = pv_json::parse(lines[0]).expect("place event is JSON");
        assert_eq!(
            place.get("trace").and_then(JsonValue::as_str),
            Some("000000000000abcd"),
            "forwarded trace id is used verbatim"
        );
        assert_eq!(
            place.get("target").and_then(JsonValue::as_str),
            Some("/v1/place")
        );
        let stages = place.get("stages").expect("stages object");
        assert!(stages.get("solve").is_some());
        assert!(stages.get("extract").is_some(), "cold request extracted");
        let healthz = pv_json::parse(lines[1]).expect("healthz event is JSON");
        assert!(
            healthz.get("stages").unwrap().get("solve").is_none(),
            "healthz has no solve span"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explicit_topology_and_placer_are_honoured() {
        let service = service();
        let body = format!(
            r#"{{"spec": "{}", "placer": "anneal", "series": 2, "strings": 1}}"#,
            spec_body(0)
        );
        let (response, _) = service.place(&body).unwrap();
        let parsed = pv_json::parse(&response).unwrap();
        assert_eq!(parsed.get("placer").unwrap().as_str(), Some("anneal"));
        assert_eq!(parsed.get("series").unwrap().as_number(), Some(2.0));
        assert_eq!(parsed.get("strings").unwrap().as_number(), Some(1.0));
        assert_eq!(parsed.get("modules").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn infeasible_requests_get_4xx_not_panics() {
        let service = service();
        // Topology beyond the service module limit.
        let body = format!(
            r#"{{"spec": "{}", "series": 8, "strings": 8}}"#,
            spec_body(0)
        );
        assert_eq!(service.place(&body).unwrap_err().0, 400);
        // A topology whose module count overflows `usize` (each factor
        // passes the 2^53 integer bound).
        let body = format!(
            r#"{{"spec": "{}", "series": 4294967296, "strings": 4294967296}}"#,
            spec_body(0)
        );
        let (status, message) = service.place(&body).unwrap_err();
        assert_eq!(status, 400, "{message}");
        assert!(message.contains("bad topology"), "{message}");
        // Bad clock override.
        let body = format!(r#"{{"spec": "{}", "step": 7}}"#, spec_body(0));
        assert_eq!(service.place(&body).unwrap_err().0, 400);
        // Exact on a site whose search space dwarfs the tiny budget.
        let body = format!(r#"{{"spec": "{}", "placer": "exact"}}"#, spec_body(0));
        let (status, message) = service.place(&body).unwrap_err();
        assert_eq!(status, 422, "{message}");
        assert!(message.contains("placement failed"));
    }

    #[test]
    fn seed_changes_the_anneal_chain_not_the_site() {
        let service = service();
        let with_seed = |seed: u64| {
            format!(
                r#"{{"spec": "{}", "placer": "anneal", "seed": {seed}}}"#,
                spec_body(2)
            )
        };
        let (a, _) = service.place(&with_seed(1)).unwrap();
        let (b, _) = service.place(&with_seed(1)).unwrap();
        assert_eq!(a, b, "same seed, same bytes");
        let parsed = pv_json::parse(&a).unwrap();
        assert_eq!(parsed.get("seed").unwrap().as_str(), Some("1"));
        // A different seed is a different request; it may (or may not)
        // land on a different placement, but it must echo its own seed.
        let (c, _) = service.place(&with_seed(2)).unwrap();
        assert_eq!(
            pv_json::parse(&c).unwrap().get("seed").unwrap().as_str(),
            Some("2")
        );
    }

    fn store_scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pvserve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The committed `*.pvsnap` files of a store directory, sorted by name.
    fn pvsnap_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "pvsnap"))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn store_round_trip_hydrates_and_serves_identical_bytes() {
        let dir = store_scratch("roundtrip");
        let body = spec_body(3);
        let baseline = service().place(&body).unwrap().0;

        let store = Arc::new(SiteStore::open(&dir).unwrap());
        let warm = PlacementService::new(ServiceConfig::tiny()).with_store(Arc::clone(&store));
        let spec = ScenarioSpec::parse_spec_string(&body).unwrap();
        assert!(warm.prewarm(&spec).unwrap());
        assert!(!warm.prewarm(&spec).unwrap(), "second pre-warm is a no-op");
        warm.drain_store();
        assert_eq!(store.counters().writes(), 1, "pre-warm commits once");
        drop(warm);
        drop(store);

        // A fresh service hydrates the snapshot and answers identically
        // from the warm entry — no extraction, same bytes.
        let restarted = PlacementService::new(ServiceConfig::tiny())
            .with_store(Arc::new(SiteStore::open(&dir).unwrap()));
        assert_eq!(restarted.hydrate_store().unwrap(), 1);
        let (hydrated, hit) = restarted.place(&body).unwrap();
        assert!(hit, "hydrated site must be a warm cache hit");
        assert_eq!(hydrated, baseline, "store must never change response bytes");
        assert_eq!(restarted.stats().snapshot().store_hits, 1);
        let (_, stats) = restarted.handle("GET", "/v1/stats", b"", &depth(0));
        let stats = pv_json::parse(&stats).unwrap();
        assert_eq!(stats.get("store_hits").unwrap().as_number(), Some(1.0));
        assert_eq!(stats.get("store_hydrated").unwrap().as_number(), Some(1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_counters_reach_both_renderings() {
        let dir = store_scratch("renderings");
        let store = Arc::new(SiteStore::open(&dir).unwrap());
        let service = PlacementService::new(ServiceConfig::tiny()).with_store(Arc::clone(&store));
        service.place(&spec_body(1)).unwrap();
        service.drain_store();
        assert_eq!(store.counters().writes(), 1);

        let (_, stats) = service.handle("GET", "/v1/stats", b"", &depth(0));
        let stats = pv_json::parse(&stats).unwrap();
        let (_, text) = service.handle("GET", "/v1/metrics", b"", &depth(0));
        for (key, metric) in [
            ("store_hits", "pv_store_hits_total"),
            ("store_hydrated", "pv_store_hydrated_total"),
            ("store_quarantined", "pv_store_quarantined_total"),
            ("store_skipped", "pv_store_skipped_total"),
            ("store_writes", "pv_store_writes_total"),
            ("store_write_errors", "pv_store_write_errors_total"),
        ] {
            let value = stats.get(key).and_then(JsonValue::as_number).unwrap();
            let line = format!("\n{metric} {value}\n");
            assert!(
                text.contains(&line),
                "{key} = {value} missing from:\n{text}"
            );
        }
        assert!(text.contains("\npv_store_writes_total 1\n"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_keys_are_a_superset_of_the_published_schema() {
        let (status, stats) = service().handle("GET", "/v1/stats", b"", &depth(0));
        assert_eq!(status, 200);
        let stats = pv_json::parse(&stats).unwrap();
        for key in [
            "requests",
            "place_ok",
            "errors",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "cache_entries",
            "cache_bytes",
            "cache_budget_bytes",
            "store_hits",
            "store_hydrated",
            "store_quarantined",
            "store_skipped",
            "store_writes",
            "store_write_errors",
            "queue_depth",
            "p50_ms",
            "p99_ms",
            "trace_dropped",
            "latency_hist",
            "stage_hists",
        ] {
            assert!(stats.get(key).is_some(), "/v1/stats lost '{key}'");
        }
    }

    #[test]
    fn corrupt_store_falls_back_to_cold_extraction_with_identical_bytes() {
        let dir = store_scratch("corrupt");
        let body = spec_body(4);
        let baseline = service().place(&body).unwrap().0;

        let spec = ScenarioSpec::parse_spec_string(&body).unwrap();
        let warm = PlacementService::new(ServiceConfig::tiny())
            .with_store(Arc::new(SiteStore::open(&dir).unwrap()));
        warm.prewarm(&spec).unwrap();
        drop(warm);

        // Flip one byte in the committed snapshot.
        let victim = pvsnap_files(&dir).remove(0);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        let restarted = PlacementService::new(ServiceConfig::tiny())
            .with_store(Arc::new(SiteStore::open(&dir).unwrap()));
        assert_eq!(restarted.hydrate_store().unwrap(), 0);
        let counters_quarantined = restarted.store().unwrap().counters().quarantined();
        assert_eq!(counters_quarantined, 1);
        let (response, hit) = restarted.place(&body).unwrap();
        assert!(!hit, "a quarantined snapshot means a cold miss");
        assert_eq!(response, baseline, "fallback must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hydrated_and_cold_entries_are_accounted_alike() {
        let dir = store_scratch("budget");
        let body = spec_body(2);
        let cold = service();
        let baseline = cold.place(&body).unwrap().0;

        let spec = ScenarioSpec::parse_spec_string(&body).unwrap();
        let warm = PlacementService::new(ServiceConfig::tiny())
            .with_store(Arc::new(SiteStore::open(&dir).unwrap()));
        warm.prewarm(&spec).unwrap();
        drop(warm);

        // The service, not the snapshot, sizes the hydrated entry.
        let restarted = PlacementService::new(ServiceConfig::tiny())
            .with_store(Arc::new(SiteStore::open(&dir).unwrap()));
        assert_eq!(restarted.hydrate_store().unwrap(), 1);
        assert_eq!(
            restarted.snapshot(0).cache_bytes,
            cold.snapshot(0).cache_bytes
        );
        let (response, hit) = restarted.place(&body).unwrap();
        assert!(hit);
        assert_eq!(response, baseline, "store must never change response bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_bytes_are_a_pure_function_of_the_site() {
        let (dir_a, dir_b) = (store_scratch("pure-a"), store_scratch("pure-b"));
        let prewarmed = PlacementService::new(ServiceConfig::tiny())
            .with_store(Arc::new(SiteStore::open(&dir_a).unwrap()));
        let served = PlacementService::new(ServiceConfig::tiny())
            .with_store(Arc::new(SiteStore::open(&dir_b).unwrap()));
        for index in [0, 1] {
            prewarmed
                .prewarm(&ScenarioSpec::generate(2018, index))
                .unwrap();
            // A cold miss queues the write behind its own solve; the
            // anneal request then runs while the writer may be encoding.
            let body = spec_body(index);
            served.place(&body).unwrap();
            let anneal = format!(r#"{{"spec": "{body}", "placer": "anneal"}}"#);
            served.place(&anneal).unwrap();
        }
        served.drain_store();

        let (files_a, files_b) = (pvsnap_files(&dir_a), pvsnap_files(&dir_b));
        assert_eq!(files_a.len(), 2);
        assert_eq!(
            files_a.iter().map(|p| p.file_name()).collect::<Vec<_>>(),
            files_b.iter().map(|p| p.file_name()).collect::<Vec<_>>()
        );
        for (a, b) in files_a.iter().zip(&files_b) {
            let (a, b) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
            assert!(a == b, "snapshot bytes depend on how the site was served");
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn hydration_skips_snapshots_from_a_different_horizon() {
        let dir = store_scratch("skew");
        let spec = ScenarioSpec::generate(2018, 5);
        let warm = PlacementService::new(ServiceConfig::tiny())
            .with_store(Arc::new(SiteStore::open(&dir).unwrap()));
        warm.prewarm(&spec).unwrap();
        drop(warm);

        // `smoke` extracts with a different horizon: the snapshot is
        // valid but can never match a key this service computes.
        let other = PlacementService::new(ServiceConfig::smoke())
            .with_store(Arc::new(SiteStore::open(&dir).unwrap()));
        assert_eq!(other.hydrate_store().unwrap(), 0);
        assert_eq!(other.store().unwrap().counters().skipped(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_evicts_under_a_starved_budget() {
        let config = ServiceConfig {
            cache_bytes: 1, // every entry overflows: at most one survives
            ..ServiceConfig::tiny()
        };
        let service = PlacementService::new(config);
        service.place(&spec_body(0)).unwrap();
        service.place(&spec_body(1)).unwrap();
        let (_, stats) = service.handle("GET", "/v1/stats", b"", &depth(0));
        let parsed = pv_json::parse(&stats).unwrap();
        assert_eq!(parsed.get("cache_entries").unwrap().as_number(), Some(1.0));
        // Re-requesting the evicted site is a miss, not an error.
        let (_, hit) = service.place(&spec_body(0)).unwrap();
        assert!(!hit);
    }
}
