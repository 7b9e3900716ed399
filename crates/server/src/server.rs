//! The TCP transport: a blocking acceptor, a read stage, and a bounded
//! [`WorkerPool`] that runs the solves.
//!
//! The acceptor blocks in `accept` (no polling; shutdown wakes it with a
//! throwaway connection) and never does protocol work. Each accepted
//! connection gets a thread of its own in the *read stage* — at most
//! `queue_capacity` at once, bounded by a [`pv_runtime::Gate`] — which
//! reads the request under one [`READ_DEADLINE`] for the whole request.
//! Control endpoints (`/v1/healthz`, `/v1/stats`, `/v1/metrics`) and
//! protocol errors are answered right there; only `/v1/place` is queued on
//! the pool. Slow or half-open clients therefore hold read-stage threads,
//! never solve workers, and a health probe is answered as soon as it is
//! read.
//!
//! Backpressure is unchanged in kind: the pool's queue is bounded, so when
//! every worker is busy and the queue is full, read-stage threads block in
//! `submit`; once every read-stage permit is taken, the acceptor blocks,
//! TCP backpressure reaches the clients, and memory stays flat under
//! overload.

use crate::http::{read_request, write_response, HttpRequest, RequestError, IO_TIMEOUT};
use pv_obs::{Stage, StageTimes, Timer};
use pv_runtime::{Gate, Runtime, Spawner, WorkerPool};
use std::io::{BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a client may take to deliver one whole request — request
/// line, headers and body, counted from `accept` — before the server
/// closes the connection unanswered. One deadline per request, not per
/// read, so a client trickling bytes cannot hold a read-stage thread
/// longer than this either. Real requests are a few hundred bytes sent
/// at once; even the 64 KiB body bound arrives well within it.
pub const READ_DEADLINE: Duration = Duration::from_secs(2);

/// Back-off after a failed `accept` (e.g. EMFILE when descriptors run
/// out), so a persistent error cannot spin the acceptor.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// Connect timeout of the connection that wakes the acceptor at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The one route that solves, and so the only one queued on the pool.
const SOLVE_ROUTE: &str = "/v1/place";

/// A request target without its query string: what every route is matched
/// on, by the handlers and the transport alike.
pub(crate) fn route_path(target: &str) -> &str {
    target.split_once('?').map_or(target, |(path, _)| path)
}

/// What the transport serves: anything that can turn a parsed request
/// into a `(status, JSON body)` pair.
///
/// [`Server`] is generic over its handler so the same acceptor/pool
/// transport serves both a single-process [`PlacementService`] and the
/// shard [`Router`] — one implementation of timeouts, backpressure, and
/// error-path conventions instead of two.
///
/// Implementations must be pure functions of the request for `/v1/place`
/// (the workspace determinism contract); the [`RequestContext`] feeds
/// observability only and must never influence response bytes. Every
/// route but `/v1/place` is answered on a read-stage thread, so those
/// routes must not wait on solves.
///
/// [`PlacementService`]: crate::service::PlacementService
/// [`Router`]: crate::router::Router
pub trait Handler: Send + Sync + 'static {
    /// Answers one request with an HTTP status and a body.
    fn handle(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
        ctx: &RequestContext,
    ) -> (u16, String);

    /// Runs on the thread that wrote the response, after the bytes are
    /// on the wire — the off-request-path slot where handlers flush their
    /// trace-log ring. The default does nothing.
    fn after_response(&self) {}

    /// Runs after the worker pool has drained during shutdown (e.g. flush
    /// pending snapshot writes). The default does nothing.
    fn on_shutdown(&self) {}
}

/// Observability context of one request, carried alongside the parsed
/// body: never allowed to influence response bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestContext {
    /// Connections accepted but not yet picked up by a worker (or
    /// answered in the read stage) at the moment this one was; reported
    /// as `queue_depth` in `/v1/stats`.
    pub queue_depth: usize,
    /// Trace id forwarded by the router in the internal `x-pv-trace`
    /// header, if any; entry-point handlers derive their own.
    pub trace: Option<u64>,
    /// Microseconds from `accept` until the whole request was read;
    /// `None` without a transport.
    pub read_us: Option<u64>,
    /// Microseconds the request waited in the worker pool's queue;
    /// `None` for requests answered in the read stage or without a
    /// transport.
    pub queue_wait_us: Option<u64>,
}

impl RequestContext {
    /// The transport spans this context carries, as the start of the
    /// request's span record.
    #[must_use]
    pub fn spans(&self) -> StageTimes {
        let mut spans = StageTimes::default();
        if let Some(us) = self.read_us {
            spans.add(Stage::Read, us);
        }
        if let Some(us) = self.queue_wait_us {
            spans.add(Stage::QueueWait, us);
        }
        spans
    }
}

/// A running placement server; dropping or [`shutdown`](Self::shutdown)
/// stops accepting, drains in-flight requests, and joins every thread.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `handler` on `runtime.threads()` workers over a queue of at most
    /// `queue_capacity` waiting requests, read by at most
    /// `queue_capacity` read-stage threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind<H: Handler>(
        addr: impl ToSocketAddrs,
        handler: Arc<H>,
        runtime: Runtime,
        queue_capacity: usize,
    ) -> std::io::Result<Self> {
        let handler: Arc<dyn Handler> = handler;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            // pvlint: allow(D03): the acceptor is transport, not compute — all solve work still goes through the WorkerPool
            std::thread::Builder::new()
                .name("pv-accept".into())
                .spawn(move || accept_loop(listener, handler, runtime, queue_capacity, &stop))?
        };
        Ok(Self {
            local_addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains queued and in-flight requests, joins all
    /// threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            // The acceptor blocks in `accept`: one connection wakes it.
            // Should this one fail, the acceptor is not blocked in an
            // empty `accept` (refused: it has closed the listener; timed
            // out: connections are queued), so it still sees the stop.
            let _ = TcpStream::connect_timeout(&wake_addr(self.local_addr), WAKE_TIMEOUT);
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() && !std::thread::panicking() {
            self.stop_and_join();
        }
    }
}

/// The address that reaches a listener bound to `addr`: itself, or
/// loopback on the same port when bound to an unspecified address
/// (`0.0.0.0`, `::`), which is not connectable.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let loopback = match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        addr.set_ip(loopback);
    }
    addr
}

fn accept_loop(
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    runtime: Runtime,
    queue_capacity: usize,
    stop: &AtomicBool,
) {
    let transport = Transport {
        pool: WorkerPool::new(runtime, queue_capacity),
        handler,
        backlog: Arc::new(AtomicUsize::new(0)),
    };
    let readers = Gate::new(queue_capacity);
    readers.scope(|spawner| {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    transport.dispatch(spawner, stream);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                Err(_) if stop.load(Ordering::Acquire) => break,
                // Transient accept errors (the peer aborted during the
                // handshake, descriptors ran out) must not kill the server.
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
        // Connections whose handshake completed before the stop get a
        // full answer too; only then does the listener close.
        if listener.set_nonblocking(true).is_ok() {
            while let Ok((stream, _)) = listener.accept() {
                transport.dispatch(spawner, stream);
            }
        }
        drop(listener);
    });
    // Every reader is joined: each request is answered or queued. Drain
    // the pool, then e.g. flush pending snapshot writes.
    let Transport { pool, handler, .. } = transport;
    pool.shutdown();
    handler.on_shutdown();
}

/// What the read stage shares: the solve pool, the handler, and the
/// count of accepted connections no worker has picked up yet.
struct Transport {
    pool: WorkerPool,
    handler: Arc<dyn Handler>,
    /// Connections accepted but neither picked up by a worker nor
    /// answered in the read stage — the number `/v1/stats` reports as
    /// `queue_depth`.
    backlog: Arc<AtomicUsize>,
}

impl Transport {
    /// Hands an accepted connection to a read-stage thread, blocking
    /// while the read stage is full.
    fn dispatch<'scope>(&'scope self, readers: &Spawner<'scope, '_>, stream: TcpStream) {
        let accepted = Timer::start();
        self.backlog.fetch_add(1, Ordering::AcqRel);
        let stream = Arc::new(stream);
        let reader_stream = Arc::clone(&stream);
        let spawned = readers.spawn("pv-read", move || {
            self.read_and_route(&reader_stream, accepted);
        });
        if spawned.is_err() {
            self.backlog.fetch_sub(1, Ordering::AcqRel);
            refuse_connection(&stream, "server is out of threads");
        }
    }

    /// Reads one request under [`READ_DEADLINE`], answers it here unless
    /// it solves, and queues it on the pool if it does.
    fn read_and_route(&self, stream: &Arc<TcpStream>, accepted: Timer) {
        // Accepted sockets are blocking (accept does not inherit the
        // listener's non-blocking drain mode on the platforms we target,
        // but be explicit), with a write timeout so a dead peer frees
        // the thread that answers it.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_nodelay(true);
        let read = read_request(&mut BufReader::new(DeadlineReader { stream, accepted }));
        let read_us = Some(accepted.elapsed_us());
        let request = match read {
            Ok(request) => request,
            Err(error) => {
                self.backlog.fetch_sub(1, Ordering::AcqRel);
                let (status, body) = match error {
                    RequestError::TooLarge => {
                        (413, r#"{"error": "request too large"}"#.to_string())
                    }
                    RequestError::Malformed(e) => {
                        (400, format!(r#"{{"error": "{}"}}"#, pv_json::escape(&e)))
                    }
                    // Peer vanished or missed the deadline: nothing to answer.
                    RequestError::Io(_) => return,
                };
                return reply(
                    stream,
                    self.handler.as_ref(),
                    status,
                    "application/json",
                    &body,
                );
            }
        };
        if route_path(&request.target) != SOLVE_ROUTE {
            let ctx = RequestContext {
                queue_depth: self.backlog.fetch_sub(1, Ordering::AcqRel) - 1,
                trace: request.trace,
                read_us,
                queue_wait_us: None,
            };
            return respond(stream, self.handler.as_ref(), &request, &ctx);
        }
        let queued = Timer::start();
        let (handler, backlog, job_stream) = (
            Arc::clone(&self.handler),
            Arc::clone(&self.backlog),
            Arc::clone(stream),
        );
        let submitted = self.pool.submit(move || {
            let ctx = RequestContext {
                queue_depth: backlog.fetch_sub(1, Ordering::AcqRel) - 1,
                trace: request.trace,
                read_us,
                queue_wait_us: Some(queued.elapsed_us()),
            };
            respond(&job_stream, handler.as_ref(), &request, &ctx);
        });
        if !submitted {
            // The queue closed under us: still answer the connection with
            // a structured 503 instead of resetting the socket.
            self.backlog.fetch_sub(1, Ordering::AcqRel);
            refuse_connection(stream, "server is shutting down");
        }
    }
}

/// A socket reader under one deadline for the whole request: each read
/// may block only for what is left of [`READ_DEADLINE`] since `accept`.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    accepted: Timer,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let spent = Duration::from_micros(self.accepted.elapsed_us());
        let left = READ_DEADLINE.saturating_sub(spent);
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Answers a connection no thread will serve (the pool's queue closed
/// during shutdown, or no read-stage thread could be spawned) with a
/// structured `503` — the error-path convention is "never drop a socket
/// you accepted".
fn refuse_connection(stream: &TcpStream, reason: &str) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let body = crate::service::error_body(reason);
    let mut writer = stream;
    let _ = write_response(&mut writer, 503, "application/json", body.as_bytes());
}

/// Runs the handler on a request and writes its answer.
fn respond(stream: &TcpStream, handler: &dyn Handler, request: &HttpRequest, ctx: &RequestContext) {
    let (status, body) = handler.handle(&request.method, &request.target, &request.body, ctx);
    // `/v1/metrics` is the one non-JSON endpoint: Prometheus exposition
    // text. Everything else keeps the fixed JSON content type.
    let content_type = if route_path(&request.target) == "/v1/metrics" && status == 200 {
        pv_obs::EXPOSITION_CONTENT_TYPE
    } else {
        "application/json"
    };
    reply(stream, handler, status, content_type, &body);
}

/// Writes one response, then runs the handler's after-response hook.
fn reply(stream: &TcpStream, handler: &dyn Handler, status: u16, content_type: &str, body: &str) {
    let mut writer = stream;
    let _ = write_response(&mut writer, status, content_type, body.as_bytes());
    // Response bytes are on the wire: anything from here on (trace-log
    // flushing) is off the request path by construction.
    handler.after_response();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::send_request;
    use crate::service::{PlacementService, ServiceConfig};

    fn start(threads: usize) -> Server {
        let service = Arc::new(PlacementService::new(ServiceConfig::tiny()));
        Server::bind("127.0.0.1:0", service, Runtime::with_threads(threads), 8)
            .expect("bind ephemeral port")
    }

    #[test]
    fn healthz_round_trips_over_tcp() {
        let server = start(2);
        let (status, body) = send_request(server.local_addr(), "GET", "/v1/healthz", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"status": "ok"}"#);
        server.shutdown();
    }

    #[test]
    fn malformed_wire_requests_get_a_400_not_a_hang() {
        use std::io::{Read, Write};
        let server = start(1);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        server.shutdown();
    }

    #[test]
    fn metrics_with_a_query_string_is_served_as_exposition_text() {
        use std::io::{Read, Write};
        let server = start(1);
        let get = |target: &str| {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            write!(stream, "GET {target} HTTP/1.1\r\nHost: pv\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        let exposition = format!("Content-Type: {}\r\n", pv_obs::EXPOSITION_CONTENT_TYPE);
        for target in ["/v1/metrics", "/v1/metrics?x=1"] {
            let response = get(target);
            assert!(response.starts_with("HTTP/1.1 200"), "{target}: {response}");
            assert!(response.contains(&exposition), "{target}: {response}");
            assert!(response.contains("# HELP"), "{target}: {response}");
        }
        let response = get("/v1/stats?x=1");
        assert!(
            response.contains("Content-Type: application/json\r\n"),
            "{response}"
        );
        server.shutdown();
    }

    #[test]
    fn place_and_stats_work_end_to_end() {
        let server = start(2);
        let spec = pv_gis::ScenarioSpec::generate(2018, 1).to_spec_string();
        let (status, body) =
            send_request(server.local_addr(), "POST", "/v1/place", spec.as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, stats) = send_request(server.local_addr(), "GET", "/v1/stats", b"").unwrap();
        assert_eq!(status, 200);
        let parsed = pv_json::parse(&stats).unwrap();
        assert_eq!(parsed.get("place_ok").unwrap().as_number(), Some(1.0));
        server.shutdown();
    }

    #[test]
    fn transport_spans_reach_stats_and_metrics_but_not_place_bytes() {
        let server = start(2);
        let addr = server.local_addr();
        let spec = pv_gis::ScenarioSpec::generate(2018, 1).to_spec_string();
        let (status, body) = send_request(addr, "POST", "/v1/place", spec.as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        // The same request embedded without a transport carries no
        // spans at all: the bytes must not notice the difference.
        let embedded = PlacementService::new(ServiceConfig::tiny());
        let (_, direct) = embedded.handle(
            "POST",
            "/v1/place",
            spec.as_bytes(),
            &RequestContext::default(),
        );
        assert_eq!(body, direct, "transport spans changed /v1/place bytes");

        let (_, stats) = send_request(addr, "GET", "/v1/stats", b"").unwrap();
        let stats = pv_json::parse(&stats).unwrap();
        let stages = stats
            .get("stage_hists")
            .and_then(pv_obs::StageHistograms::from_sparse)
            .expect("stage_hists decodes");
        for stage in [Stage::Read, Stage::QueueWait] {
            let hist = stages.get(stage);
            assert_eq!(hist.count(), 1, "{} recorded once", stage.name());
            assert!(hist.sum() > 0, "{} is nonzero", stage.name());
        }
        let (_, metrics) = send_request(addr, "GET", "/v1/metrics", b"").unwrap();
        for name in ["read", "queue_wait"] {
            let series = format!("pv_stage_us_count{{stage=\"{name}\"}} 1");
            assert!(metrics.contains(&series), "{series} missing:\n{metrics}");
        }
        server.shutdown();
    }

    #[test]
    fn refused_connections_get_a_structured_503() {
        use std::io::Read;
        // Drive the queue-closed path directly: a socket the pool will
        // never pick up still gets an answer, not a reset.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        refuse_connection(&accepted, "server is shutting down");
        drop(accepted);
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("shutting down"), "{response}");
    }

    #[test]
    fn idle_server_on_an_unspecified_address_shuts_down_promptly() {
        // Nothing ever connects: only the shutdown wake-up, aimed at
        // loopback instead of the unconnectable 0.0.0.0, ends `accept`.
        let service = Arc::new(PlacementService::new(ServiceConfig::tiny()));
        let server = Server::bind("0.0.0.0:0", service, Runtime::with_threads(2), 8)
            .expect("bind all interfaces");
        let started = std::time::Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "idle shutdown took {took:?}");
    }

    #[test]
    fn connections_racing_shutdown_get_an_answer_never_a_reset() {
        use std::io::{Read, Write};
        let spec = pv_gis::ScenarioSpec::generate(2018, 1).to_spec_string();
        let request = format!(
            "POST /v1/place HTTP/1.1\r\nContent-Length: {}\r\n\r\n{spec}",
            spec.len()
        );
        for round in 0..8 {
            let server = start(2);
            let addr = server.local_addr();
            // Whole requests already sent when the stop lands: some are
            // being solved, some queued, some not yet accepted.
            let clients: Vec<TcpStream> = (0..6)
                .map(|_| {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream.write_all(request.as_bytes()).unwrap();
                    stream
                })
                .collect();
            // Let later rounds get further before the stop lands.
            for _ in 0..round {
                send_request(addr, "GET", "/v1/healthz", b"").unwrap();
            }
            server.shutdown();
            for mut stream in clients {
                let mut response = String::new();
                stream
                    .read_to_string(&mut response)
                    .unwrap_or_else(|e| panic!("round {round}: reset instead of an answer: {e}"));
                let complete = response.starts_with("HTTP/1.1 200")
                    || (response.starts_with("HTTP/1.1 503") && response.contains("shutting down"));
                assert!(complete, "round {round}: {response}");
            }
        }
    }

    #[test]
    fn wake_address_turns_unspecified_into_loopback() {
        let v4: SocketAddr = "0.0.0.0:8917".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:8917".parse().unwrap());
        let v6: SocketAddr = "[::]:8917".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:8917".parse().unwrap());
        let bound: SocketAddr = "10.0.0.7:80".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let server = start(1);
        let addr = server.local_addr();
        drop(server);
        // The listener is fully closed: the exact port can be bound again.
        TcpListener::bind(addr).expect("port released after drop");
    }
}
