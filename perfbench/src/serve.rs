//! The two serving workloads.
//!
//! * `serve_warm`: a `pvplan serve` child with every site pre-warmed in
//!   set-up; a greedy/anneal/exact mix that only ever hits the cache.
//! * `route_churn`: a `pvplan route` fleet whose store holds the hottest
//!   sites; Zipf requests over a population far larger than the shard
//!   caches, so hits sit beside cold misses that extract and write
//!   snapshots behind.
//!
//! Untraced runs talk to the release binary over TCP. Traced runs serve
//! the same library types in-process behind `Server::bind`, wrapped in
//! [`Traced`], a handler that timestamps entry and exit of every request.

use crate::gen::{self, Kind, Request};
use crate::load::{self, Reply};
use crate::metrics::{deltas, mean, median, ns_per, shadow_sun_s, tail, unaccounted_share};
use crate::{nproc, peak_rss_mb, Args, Outcome};
use pv_floorplan::{FloorplanConfig, SuitabilityMap};
use pv_gis::synth::fnv1a;
use pv_gis::{HorizonMap, ScenarioSpec};
use pv_json::JsonValue;
use pv_obs::{Histogram, Stage, StageHistograms};
use pv_runtime::Runtime;
use pv_server::http::send_request;
use pv_server::{
    Handler, HashRing, PlacementService, RequestContext, Router, RouterConfig, Server,
    ServiceConfig,
};
use pv_store::SiteStore;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sites pre-warmed for `serve_warm`, stratified by latitude band and
/// size from `WARM_OVERSAMPLE ×` as many corpus candidates. 30 sites fit
/// the standard profile's 256 MiB cache with room to spare, so every
/// request stays a hit.
const WARM_SITES: usize = 30;
const WARM_OVERSAMPLE: usize = 4;
/// Open-loop arrival rate of `serve_warm`, requests per second: well
/// below the knee of a 2-worker server on this mix.
const WARM_RATE: f64 = 80.0;

/// `route_churn` fleet shape and traffic.
const SHARDS: usize = 2;
const CHURN_POPULATION: usize = 3000;
/// Zipf exponent of site popularity: ~4% of requests miss the caches.
const CHURN_ZIPF_S: f64 = 1.8;
/// Hottest ranks written to the store before set-up, so set-up pays
/// hydration.
const CHURN_HOT: usize = 48;
/// Open-loop arrival rate of `route_churn`, requests per second: cold
/// misses hold a 1-thread shard for tens of ms, so the knee is low.
const CHURN_RATE: f64 = 60.0;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` each workload spends in its open loop; the rest
/// is closed loop. The churn tail needs the larger sample.
const WARM_OPEN_SHARE: f64 = 0.6;
const CHURN_OPEN_SHARE: f64 = 0.75;
/// Length of the closed loops' request lists, which they cycle through.
const CLOSED_REQUESTS: usize = 20_000;
/// Requests per burst whose closed-loop wall time is `wall_s`.
const BURST: usize = 100;
/// Longest wait for a child to publish its port and answer healthz.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// What `PlacementService::place` returns for one body.
type Answer = Result<(String, bool), (u16, String)>;

fn digest(body: &str) -> u64 {
    fnv1a(body.as_bytes())
}

/// Expected `(status, body digest)` of every request body, produced
/// in-process by `PlacementService::place` on the standard profile.
#[derive(Default)]
struct Oracle {
    want: BTreeMap<String, (u16, u64)>,
}

impl Oracle {
    fn insert(&mut self, body: &str, answer: Answer) {
        let entry = match answer {
            Ok((text, _)) => (200, digest(&text)),
            Err((status, text)) => (status, digest(&text)),
        };
        self.want.insert(body.to_string(), entry);
    }

    /// Computes the reference for every body not known yet. `bodies`
    /// pairs each body with its site; each site is solved on one of
    /// `nproc` threads, so a site is extracted only once.
    fn fill(&mut self, bodies: &[(usize, &str)]) {
        let missing: BTreeSet<(usize, &str)> = bodies
            .iter()
            .filter(|(_, body)| !self.want.contains_key(*body))
            .copied()
            .collect();
        let threads = nproc();
        let service = PlacementService::new(ServiceConfig::standard().with_cache_bytes(64 << 20));
        let computed: Vec<(String, Answer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let service = &service;
                    let missing = &missing;
                    scope.spawn(move || {
                        missing
                            .iter()
                            .filter(|(site, _)| site % threads == t)
                            .map(|(_, body)| (body.to_string(), service.place(body)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread"))
                .collect()
        });
        for (body, answer) in computed {
            self.insert(&body, answer);
        }
    }

    /// Counts `replies` into `out`: anything but the reference status
    /// and bytes (or a 4xx/5xx reference) is a failure.
    fn check(&self, bodies: &[&str], replies: &[Reply], out: &mut Outcome) {
        for reply in replies {
            out.attempted += 1;
            let want = self.want.get(bodies[reply.index]).copied();
            let ok = match (&reply.result, want) {
                (Ok((status, text)), Some((want_status, want_digest))) => {
                    *status == 200 && want_status == 200 && digest(text) == want_digest
                }
                _ => false,
            };
            if !ok {
                out.failed += 1;
            }
        }
    }
}

/// A `pvplan serve|route` child: stdin piped so closing it drains and
/// stops the server (`--watch-stdin`).
struct Proc {
    child: Child,
    addr: SocketAddr,
}

impl Proc {
    fn spawn(pvplan: &Path, args: &[String], scratch: &Path, tag: &str) -> Result<Self, String> {
        let port_file = scratch.join(format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(scratch.join(format!("{tag}.log")))
            .map_err(|e| format!("creating child log: {e}"))?;
        let mut child = Command::new(pvplan)
            .args(args)
            .args(["--port", "0", "--port-file"])
            .arg(&port_file)
            .arg("--watch-stdin")
            .stdin(Stdio::piped())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", pvplan.display()))?;
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("{tag} exited during start-up ({status})"));
            }
            let addr = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|text| text.trim().parse::<SocketAddr>().ok());
            if let Some(addr) = addr {
                if matches!(send_request(addr, "GET", "/v1/healthz", b""), Ok((200, _))) {
                    return Ok(Self { child, addr });
                }
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{tag} did not become healthy in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes stdin (graceful drain) and waits; kills after 30 s.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The benchmark-owned handler of traced runs: wraps the real handler
/// and records `(trace id, entry, exit)` for every traced request.
/// Spans stay in memory until the run ends.
struct Traced<H> {
    inner: Arc<H>,
    recording: AtomicBool,
    spans: Mutex<Vec<(u64, Instant, Instant)>>,
}

impl<H> Traced<H> {
    fn new(inner: Arc<H>) -> Self {
        Self {
            inner,
            recording: AtomicBool::new(true),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> BTreeMap<u64, (Instant, Instant)> {
        self.spans
            .lock()
            .expect("span lock")
            .iter()
            .map(|&(id, entry, exit)| (id, (entry, exit)))
            .collect()
    }
}

impl<H: Handler> Handler for Traced<H> {
    fn handle(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
        ctx: &RequestContext,
    ) -> (u16, String) {
        let entry = Instant::now();
        let answer = self.inner.handle(method, target, body, ctx);
        if let (Some(id), true) = (ctx.trace, self.recording.load(Ordering::Relaxed)) {
            let exit = Instant::now();
            self.spans
                .lock()
                .expect("span lock")
                .push((id, entry, exit));
        }
        answer
    }

    fn after_response(&self) {
        self.inner.after_response();
    }

    fn on_shutdown(&self) {
        self.inner.on_shutdown();
    }
}

/// Client-side and handler-side times of the traced requests, µs.
#[derive(Default)]
struct Hops {
    inbound: Vec<f64>,
    handle: Vec<f64>,
    outbound: Vec<f64>,
    by_kind: BTreeMap<Kind, Vec<f64>>,
}

fn join_spans(
    replies: &[Reply],
    kinds: &[Kind],
    spans: &BTreeMap<u64, (Instant, Instant)>,
    origin: Instant,
) -> Hops {
    let mut hops = Hops::default();
    let at = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    for reply in replies {
        let Some(&(entry, exit)) = spans.get(&reply.trace) else {
            continue;
        };
        let handle = (at(exit) - at(entry)) * 1e6;
        hops.inbound.push((at(entry) - reply.timing.sent) * 1e6);
        hops.handle.push(handle);
        hops.outbound.push((reply.timing.done - at(exit)) * 1e6);
        hops.by_kind
            .entry(kinds[reply.index])
            .or_default()
            .push(handle);
    }
    hops
}

/// `GET /v1/stats` as parsed JSON.
fn stats(addr: SocketAddr) -> Result<JsonValue, String> {
    match send_request(addr, "GET", "/v1/stats", b"") {
        Ok((200, body)) => pv_json::parse(&body).map_err(|e| e.to_string()),
        Ok((status, body)) => Err(format!("/v1/stats answered {status}: {body}")),
        Err(e) => Err(format!("/v1/stats: {e}")),
    }
}

fn number(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_number).unwrap_or(0.0)
}

fn hist(doc: &JsonValue) -> Histogram {
    doc.get("latency_hist")
        .and_then(Histogram::from_sparse)
        .unwrap_or_default()
}

fn stage_sum_us(doc: &JsonValue) -> f64 {
    doc.get("stage_hists")
        .and_then(StageHistograms::from_sparse)
        .map_or(0.0, |h| {
            Stage::ALL.iter().map(|&s| h.get(s).sum() as f64).sum()
        })
}

fn stage_us(doc: &JsonValue, stage: Stage) -> f64 {
    doc.get("stage_hists")
        .and_then(StageHistograms::from_sparse)
        .map_or(0.0, |h| h.get(stage).sum() as f64)
}

/// Mean place latency between two stats documents, µs.
fn place_mean_us(before: &JsonValue, after: &JsonValue) -> f64 {
    let (b, a) = (hist(before), hist(after));
    let count = a.count().saturating_sub(b.count());
    if count == 0 {
        0.0
    } else {
        a.sum().saturating_sub(b.sum()) as f64 / count as f64
    }
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))
}

fn pvplan(args: &Args) -> Result<&Path, String> {
    args.pvplan
        .as_deref()
        .ok_or_else(|| "serve workloads need --pvplan PATH".to_string())
}

/// The end-to-end metrics of the open and closed loops.
fn record_loops(open: &[Reply], closed: &[Reply], out: &mut Outcome) {
    let closed_seconds = closed.iter().map(|r| r.timing.done).fold(0.0, f64::max);
    let latencies: Vec<f64> = open.iter().map(|r| r.timing.latency_ms()).collect();
    let lags: Vec<f64> = open.iter().map(|r| r.timing.lag_ms()).collect();
    let (q, p_tail) = tail(&latencies);
    let (_, lag_tail) = tail(&lags);
    out.note(format!(
        "open loop: {} samples, tail = p{:.1}; generator lag median {:.3} ms, tail {:.3} ms",
        latencies.len(),
        q * 100.0,
        median(&lags),
        lag_tail
    ));
    out.note(format!(
        "closed loop: {} requests in {closed_seconds:.1} s",
        closed.len()
    ));
    out.metric("p50_ms", median(&latencies));
    out.metric("p99_ms", p_tail);
    let rps = closed.len() as f64 / closed_seconds;
    out.metric("rps", rps);
    out.metric("wall_s", BURST as f64 / rps);
}

/// The per-layer metrics of the open loop's generator and hops.
fn record_hops(open: &[Reply], hops: &Hops, out: &mut Outcome) {
    let lags: Vec<f64> = open.iter().map(|r| r.timing.lag_ms()).collect();
    out.metric("load.lag_ms", mean(&lags));
    out.metric("load.open_samples", open.len() as f64);
    out.metric("server.inbound_us", mean(&hops.inbound));
    out.metric("server.outbound_us", mean(&hops.outbound));
}

/// The traced run's closed loop, split in two halves over one request
/// list: span recording on, then off.
fn overhead_loops<H>(
    addr: SocketAddr,
    handler: &Traced<H>,
    requests: &[Request],
    seconds: f64,
) -> (Vec<Reply>, Vec<Reply>) {
    let bodies = bodies_of(requests);
    let traced = load::closed_loop(addr, &bodies, 0, nproc(), seconds / 2.0, 1 << 40);
    handler.recording.store(false, Ordering::Relaxed);
    let plain = load::closed_loop(addr, &bodies, traced.len(), nproc(), seconds / 2.0, 0);
    (traced, plain)
}

/// Mean closed-loop latency with spans recorded over that without.
fn overhead_share(traced: &[Reply], plain: &[Reply]) -> f64 {
    let latency = |replies: &[Reply]| {
        mean(
            &replies
                .iter()
                .map(|r| r.timing.latency_ms())
                .collect::<Vec<_>>(),
        )
    };
    latency(traced) / latency(plain) - 1.0
}

fn bodies_of(requests: &[Request]) -> Vec<&str> {
    requests.iter().map(|r| r.body.as_str()).collect()
}

/// Sends one greedy request per site from `nproc` threads, all due at
/// once; the replies are checked like any other.
fn prewarm(addr: SocketAddr, bodies: &[&str]) -> Vec<Reply> {
    let due = vec![0.0; bodies.len()];
    load::open_loop(addr, bodies, &due, nproc(), Instant::now(), 0)
}

struct WarmInputs {
    prewarm: Vec<Request>,
    open: Vec<Request>,
    due: Vec<f64>,
    closed: Vec<Request>,
}

fn warm_inputs(seed: u64, seconds: f64) -> WarmInputs {
    let specs: Vec<String> = gen::stratified_sites(seed, WARM_SITES, WARM_OVERSAMPLE)
        .iter()
        .map(ScenarioSpec::to_spec_string)
        .collect();
    let due = gen::paced_schedule(seed, "warm-open", WARM_RATE, seconds * WARM_OPEN_SHARE);
    WarmInputs {
        prewarm: (0..specs.len())
            .map(|site| Request {
                site,
                kind: Kind::Greedy,
                body: gen::body_for(&specs[site], Kind::Greedy, 0),
            })
            .collect(),
        open: gen::warm_mix(seed, "warm-open-mix", &specs, due.len()),
        due,
        // The closed loop cycles through this list.
        closed: gen::warm_mix(seed, "warm-closed-mix", &specs, CLOSED_REQUESTS),
    }
}

fn site_bodies<'a>(lists: &[(&'a [Request], &[Reply])]) -> Vec<(usize, &'a str)> {
    lists
        .iter()
        .flat_map(|(requests, replies)| {
            replies
                .iter()
                .map(|r| (requests[r.index].site, requests[r.index].body.as_str()))
        })
        .collect()
}

pub fn serve_warm(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let inputs = warm_inputs(args.seed, args.seconds);
    let (open_bodies, closed_bodies, prewarm_bodies) = (
        bodies_of(&inputs.open),
        bodies_of(&inputs.closed),
        bodies_of(&inputs.prewarm),
    );
    let closed_seconds = args.seconds * (1.0 - WARM_OPEN_SHARE);
    out.note(format!(
        "serve_warm: {WARM_SITES} sites, mix {:?}, open loop {WARM_RATE}/s x {:.1} s on {} client(s), closed loop {} client(s) x {closed_seconds:.1} s",
        gen::WARM_MIX, args.seconds * WARM_OPEN_SHARE, nproc(), nproc()
    ));
    let mut oracle = Oracle::default();
    if args.trace {
        return serve_warm_traced(&inputs, closed_seconds, &mut oracle, out);
    }

    let scratch = args.scratch.join("serve_warm");
    fresh_dir(&scratch)?;
    let serve_args: Vec<String> = ["serve", "--profile", "standard", "--threads"]
        .iter()
        .map(|s| s.to_string())
        .chain([nproc().to_string()])
        .collect();
    let mut setups = Vec::new();
    let mut prewarmed = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let proc = Proc::spawn(pvplan(args)?, &serve_args, &scratch, &format!("serve{rep}"))?;
        let replies = prewarm(proc.addr, &prewarm_bodies);
        setups.push(t0.elapsed().as_secs_f64());
        prewarmed.push(replies);
        if rep + 1 < SETUP_REPS {
            proc.stop();
        } else {
            server = Some(proc);
        }
    }
    let server = server.expect("at least one set-up");
    let origin = Instant::now();
    let open = load::open_loop(server.addr, &open_bodies, &inputs.due, nproc(), origin, 0);
    let closed = load::closed_loop(server.addr, &closed_bodies, 0, nproc(), closed_seconds, 0);
    let rss = peak_rss_mb(server.pid());
    server.stop();

    let mut lists: Vec<(&[Request], &[Reply])> =
        vec![(&inputs.open, &open), (&inputs.closed, &closed)];
    for replies in &prewarmed {
        lists.push((&inputs.prewarm, replies));
    }
    oracle.fill(&site_bodies(&lists));
    for replies in &prewarmed {
        oracle.check(&prewarm_bodies, replies, out);
    }
    oracle.check(&open_bodies, &open, out);
    oracle.check(&closed_bodies, &closed, out);

    out.metric("setup_s", median(&setups));
    record_loops(&open, &closed, out);
    out.metric("peak_rss_mb", rss);
    Ok(())
}

fn serve_warm_traced(
    inputs: &WarmInputs,
    closed_seconds: f64,
    oracle: &mut Oracle,
    out: &mut Outcome,
) -> Result<(), String> {
    let service = Arc::new(PlacementService::new(ServiceConfig::standard()));
    let handler = Arc::new(Traced::new(Arc::clone(&service)));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&handler),
        Runtime::with_threads(nproc()),
        64,
    )
    .map_err(|e| format!("binding the traced server: {e}"))?;
    let addr = server.local_addr();
    let (open_bodies, closed_bodies, prewarm_bodies) = (
        bodies_of(&inputs.open),
        bodies_of(&inputs.closed),
        bodies_of(&inputs.prewarm),
    );
    let prewarmed = prewarm(addr, &prewarm_bodies);
    let before = service.stats().snapshot();
    let (lat_before, stages_before) = (
        service.stats().latency_histogram(),
        service.stats().stage_histograms(),
    );

    let origin = Instant::now();
    let open = load::open_loop(addr, &open_bodies, &inputs.due, nproc(), origin, 1);
    let kinds: Vec<Kind> = inputs.open.iter().map(|r| r.kind).collect();
    let hops = join_spans(&open, &kinds, &handler.spans(), origin);

    let (traced, plain) = overhead_loops(addr, &handler, &inputs.closed, closed_seconds);
    let after = service.stats().snapshot();
    let (lat_after, stages_after) = (
        service.stats().latency_histogram(),
        service.stats().stage_histograms(),
    );
    server.shutdown();

    oracle.fill(&site_bodies(&[
        (&inputs.prewarm, &prewarmed),
        (&inputs.open, &open),
        (&inputs.closed, &traced),
        (&inputs.closed, &plain),
    ]));
    oracle.check(&prewarm_bodies, &prewarmed, out);
    oracle.check(&open_bodies, &open, out);
    oracle.check(&closed_bodies, &traced, out);
    oracle.check(&closed_bodies, &plain, out);

    let place_ok = (after.place_ok - before.place_ok) as f64;
    let stage_sum: f64 = Stage::ALL
        .iter()
        .map(|&s| (stages_after.get(s).sum() - stages_before.get(s).sum()) as f64)
        .sum();
    let stage_sum_us = stage_sum / place_ok.max(1.0);
    let service_us = (lat_after.sum() - lat_before.sum()) as f64 / place_ok.max(1.0);
    let handle_us = mean(&hops.handle);
    out.note(format!(
        "traced: {} spans joined; service-internal place latency {service_us:.1} us vs handle {handle_us:.1} us",
        hops.handle.len()
    ));
    record_hops(&open, &hops, out);
    out.metric("server.handle_us", handle_us);
    for kind in Kind::ALL {
        let values = hops.by_kind.get(&kind).map_or(&[][..], Vec::as_slice);
        out.metric(&format!("server.handle_{}_us", kind.name()), mean(values));
    }
    out.metric("server.stage_sum_us", stage_sum_us);
    let lookups =
        (after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses) as f64;
    out.metric(
        "server.cache_hit_rate",
        (after.cache_hits - before.cache_hits) as f64 / lookups.max(1.0),
    );
    out.metric(
        "server.cache_misses",
        (after.cache_misses - before.cache_misses) as f64,
    );
    out.metric(
        "trace.unaccounted_share",
        unaccounted_share(handle_us, stage_sum_us),
    );
    out.metric("trace.overhead_share", overhead_share(&traced, &plain));
    Ok(())
}

struct ChurnInputs {
    /// Spec string of every popularity rank.
    specs: Vec<String>,
    open: Vec<Request>,
    due: Vec<f64>,
    closed: Vec<Request>,
}

fn churn_inputs(seed: u64, seconds: f64) -> ChurnInputs {
    let zipf = gen::Zipf::new(CHURN_POPULATION, CHURN_ZIPF_S);
    let ring = HashRing::new(SHARDS);
    let specs: Vec<String> = gen::churn_sites(seed, CHURN_POPULATION, SHARDS, |spec| {
        ring.shard_for(spec.canonical_hash())
    })
    .iter()
    .map(ScenarioSpec::to_spec_string)
    .collect();
    let requests = |ranks: Vec<usize>| -> Vec<Request> {
        ranks
            .into_iter()
            .map(|site| Request {
                site,
                kind: Kind::Greedy,
                body: specs[site].clone(),
            })
            .collect()
    };
    let due = gen::paced_schedule(seed, "churn-open", CHURN_RATE, seconds * CHURN_OPEN_SHARE);
    let open = requests(gen::zipf_ranks(seed, "churn-open-ranks", &zipf, due.len()));
    let closed = requests(gen::zipf_ranks(
        seed,
        "churn-closed-ranks",
        &zipf,
        CLOSED_REQUESTS,
    ));
    ChurnInputs {
        specs,
        open,
        due,
        closed,
    }
}

/// Writes the `CHURN_HOT` hottest sites into the shard partitions the
/// router will hash them to, recording their reference answers.
fn populate_store(root: &Path, inputs: &ChurnInputs, oracle: &mut Oracle) -> Result<(), String> {
    let ring = HashRing::new(SHARDS);
    let answers: Vec<Vec<(String, Answer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|shard| {
                let ring = &ring;
                scope.spawn(move || -> Result<_, String> {
                    let store = SiteStore::open_shard(root, shard).map_err(|e| e.to_string())?;
                    let service = PlacementService::new(ServiceConfig::standard())
                        .with_store(Arc::new(store));
                    let mut answers = Vec::new();
                    for spec_text in &inputs.specs[..CHURN_HOT] {
                        let spec = ScenarioSpec::parse_spec_string(spec_text)?;
                        if ring.shard_for(spec.canonical_hash()) != shard {
                            continue;
                        }
                        answers.push((spec_text.clone(), service.place(spec_text)));
                        service.prewarm(&spec)?;
                    }
                    service.drain_store();
                    Ok(answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("populate thread"))
            .collect::<Result<_, String>>()
    })?;
    for (body, answer) in answers.into_iter().flatten() {
        oracle.insert(&body, answer);
    }
    Ok(())
}

/// The numeric top-level fields of a stats document.
fn counters(doc: &JsonValue) -> BTreeMap<String, f64> {
    match doc {
        JsonValue::Object(fields) => fields
            .iter()
            .filter_map(|(k, v)| v.as_number().map(|n| (k.clone(), n)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Fleet counters that should move on `route_churn`.
fn record_fleet(before: &JsonValue, after: &JsonValue, out: &mut Outcome) {
    let deltas = deltas(&counters(before), &counters(after));
    let delta = |key: &str| deltas.get(key).copied().unwrap_or(0.0);
    let lookups = delta("cache_hits") + delta("cache_misses");
    out.note(format!(
        "fleet: {} hits, {} misses, {} store writes, {} hydrated",
        delta("cache_hits"),
        delta("cache_misses"),
        delta("store_writes"),
        number(before, "store_hydrated")
    ));
    out.metric("server.cache_misses", delta("cache_misses"));
    out.metric(
        "server.cache_hit_rate",
        delta("cache_hits") / lookups.max(1.0),
    );
    out.metric("store.writes", delta("store_writes"));
    out.metric("store.hydrated", number(before, "store_hydrated"));
    out.metric("store.write_errors", delta("store_write_errors"));
}

pub fn route_churn(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let inputs = churn_inputs(args.seed, args.seconds);
    let closed_seconds = args.seconds * (1.0 - CHURN_OPEN_SHARE);
    out.note(format!(
        "route_churn: {SHARDS} shards x 1 thread, Zipf s={} over {CHURN_POPULATION} sites, {CHURN_HOT} hottest in the store, open loop {}/s x {:.1} s, closed loop {} client(s) x {closed_seconds:.1} s",
        CHURN_ZIPF_S,
        CHURN_RATE,
        args.seconds * CHURN_OPEN_SHARE,
        nproc()
    ));
    let scratch = args.scratch.join("route_churn");
    let store_root = scratch.join("store");
    fresh_dir(&scratch)?;
    let mut oracle = Oracle::default();
    populate_store(&store_root, &inputs, &mut oracle)?;
    let (open_bodies, closed_bodies) = (bodies_of(&inputs.open), bodies_of(&inputs.closed));

    if args.trace {
        return route_churn_traced(args, &inputs, &store_root, closed_seconds, &mut oracle, out);
    }
    let route_args: Vec<String> = [
        "route",
        "--shards",
        "2",
        "--threads",
        "1",
        "--profile",
        "standard",
        "--store-dir",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([store_root.to_string_lossy().into_owned()])
    .collect();
    let mut setups = Vec::new();
    let mut router = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let proc = Proc::spawn(pvplan(args)?, &route_args, &scratch, &format!("route{rep}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            proc.stop();
        } else {
            router = Some(proc);
        }
    }
    let router = router.expect("at least one set-up");
    let before = stats(router.addr)?;
    let origin = Instant::now();
    let open = load::open_loop(router.addr, &open_bodies, &inputs.due, nproc(), origin, 0);
    let closed = load::closed_loop(router.addr, &closed_bodies, 0, nproc(), closed_seconds, 0);
    let after = stats(router.addr)?;
    let shard_pids: Vec<u32> = after
        .get("shard_pids")
        .and_then(JsonValue::as_array)
        .map(|pids| {
            pids.iter()
                .filter_map(JsonValue::as_number)
                .map(|p| p as u32)
                .collect()
        })
        .unwrap_or_default();
    let rss = peak_rss_mb(router.pid()) + shard_pids.iter().map(|&p| peak_rss_mb(p)).sum::<f64>();
    router.stop();

    oracle.fill(&site_bodies(&[
        (&inputs.open, &open),
        (&inputs.closed, &closed),
    ]));
    oracle.check(&open_bodies, &open, out);
    oracle.check(&closed_bodies, &closed, out);
    record_fleet(&before, &after, out);
    out.metric("setup_s", median(&setups));
    record_loops(&open, &closed, out);
    out.metric("peak_rss_mb", rss);
    Ok(())
}

/// Cold-missed sites replayed layer by layer in traced runs.
const REPLAY_SITES: usize = 16;

fn route_churn_traced(
    args: &Args,
    inputs: &ChurnInputs,
    store_root: &Path,
    closed_seconds: f64,
    oracle: &mut Oracle,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut config = RouterConfig::new(SHARDS, PathBuf::from(pvplan(args)?), store_root);
    config.worker_args = ["serve", "--profile", "standard", "--threads", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let router = Arc::new(Router::start(config)?);
    let handler = Arc::new(Traced::new(Arc::clone(&router)));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&handler),
        Runtime::with_threads(SHARDS + 2),
        64,
    )
    .map_err(|e| format!("binding the traced router: {e}"))?;
    let addr = server.local_addr();
    let (open_bodies, closed_bodies) = (bodies_of(&inputs.open), bodies_of(&inputs.closed));

    let before = stats(addr)?;
    let origin = Instant::now();
    let open = load::open_loop(addr, &open_bodies, &inputs.due, nproc(), origin, 1);
    let kinds: Vec<Kind> = inputs.open.iter().map(|r| r.kind).collect();
    let hops = join_spans(&open, &kinds, &handler.spans(), origin);
    let after_open = stats(addr)?;
    let (traced, plain) = overhead_loops(addr, &handler, &inputs.closed, closed_seconds);
    let after = stats(addr)?;
    server.shutdown();

    oracle.fill(&site_bodies(&[
        (&inputs.open, &open),
        (&inputs.closed, &traced),
        (&inputs.closed, &plain),
    ]));
    oracle.check(&open_bodies, &open, out);
    oracle.check(&closed_bodies, &traced, out);
    oracle.check(&closed_bodies, &plain, out);
    out.metric("trace.overhead_share", overhead_share(&traced, &plain));

    record_fleet(&before, &after, out);
    record_hops(&open, &hops, out);
    let shard_place_us = place_mean_us(&before, &after_open);
    let router_us = mean(&hops.handle);
    out.metric("router.handle_us", router_us);
    out.metric("router.hop_us", router_us - shard_place_us);
    out.metric("server.handle_us", shard_place_us);
    let place_count = (hist(&after_open).count() - hist(&before).count()) as f64;
    let shard_stage_us = (stage_sum_us(&after_open) - stage_sum_us(&before)) / place_count.max(1.0);
    out.metric("server.stage_sum_us", shard_stage_us);
    out.metric(
        "trace.unaccounted_share",
        unaccounted_share(shard_place_us, shard_stage_us),
    );
    out.metric(
        "floorplan.suitability_calls",
        number(&after, "cache_misses") - number(&before, "cache_misses"),
    );

    // The cold path's layers, replayed in-process on one thread (as a
    // shard runs them) for the first cold-missed sites of the run.
    let mut seen: BTreeSet<usize> = (0..CHURN_HOT).collect();
    let cold: Vec<usize> = open
        .iter()
        .map(|r| inputs.open[r.index].site)
        .chain(
            traced
                .iter()
                .chain(&plain)
                .map(|r| inputs.closed[r.index].site),
        )
        .filter(|site| seen.insert(*site))
        .take(REPLAY_SITES)
        .collect();
    replay_cold_layers(&inputs.specs, &cold, out)?;
    let shard_extract_us = (stage_us(&after, Stage::Extract) - stage_us(&before, Stage::Extract))
        / (number(&after, "cache_misses") - number(&before, "cache_misses")).max(1.0);
    out.note(format!(
        "traced: {} router spans joined; shard place {shard_place_us:.1} us; shard extract span {shard_extract_us:.1} us per miss",
        hops.handle.len()
    ));
    Ok(())
}

/// Times the cold path's layer calls on `sites`, one thread, and
/// records per-miss means.
fn replay_cold_layers(specs: &[String], sites: &[usize], out: &mut Outcome) -> Result<(), String> {
    let service = ServiceConfig::standard();
    let clock = pv_units::SimulationClock::days_at_minutes(service.days, service.step_minutes);
    let probe = FloorplanConfig::paper(pv_model::Topology::new(1, 1).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let (mut horizon, mut weather, mut extract, mut suitability) = (0.0, 0.0, 0.0, 0.0);
    let (mut shadow_units, mut suitability_units) = (0.0, 0.0);
    let time = |slot: &mut f64, t0: Instant| *slot += t0.elapsed().as_secs_f64();
    for &site in sites {
        let scenario = ScenarioSpec::parse_spec_string(&specs[site])?.build();
        let t0 = Instant::now();
        std::hint::black_box(HorizonMap::compute(&scenario.dsm, service.horizon_sectors));
        time(&mut horizon, t0);
        let t0 = Instant::now();
        std::hint::black_box(scenario.weather.generate(clock));
        time(&mut weather, t0);
        let t0 = Instant::now();
        let dataset = scenario
            .extractor(clock)
            .horizon_sectors(service.horizon_sectors)
            .runtime(Runtime::sequential())
            .extract(&scenario.dsm);
        time(&mut extract, t0);
        let t0 = Instant::now();
        std::hint::black_box(SuitabilityMap::compute(&dataset, &probe));
        time(&mut suitability, t0);
        let beam = dataset
            .beam_row_map()
            .iter()
            .filter(|&&r| r != u32::MAX)
            .count();
        shadow_units += (dataset.dims().num_cells() * beam) as f64;
        suitability_units += dataset.valid().count() as f64 * f64::from(dataset.num_steps());
    }
    let n = sites.len().max(1) as f64;
    let shadow = shadow_sun_s(extract, horizon, weather);
    out.metric("gis.horizon_s", horizon / n);
    out.metric("gis.weather_s", weather / n);
    out.metric("gis.extract_s", extract / n);
    out.metric("gis.shadow_sun_s", shadow / n);
    out.metric("gis.shadow_ns_per_cell_step", ns_per(shadow, shadow_units));
    out.metric("floorplan.suitability_s", suitability / n);
    out.metric(
        "floorplan.suitability_ns_per_cell_step",
        ns_per(suitability, suitability_units),
    );
    Ok(())
}
