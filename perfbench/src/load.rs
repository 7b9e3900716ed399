//! The load generator: one process, at most `clients` threads, one TCP
//! connection per request (the server speaks `Connection: close`).
//!
//! * [`open_loop`] sends each request at its due time whatever the
//!   server does, so a stall charges every request it delays; latency is
//!   timed from the due time and the generator's lateness is kept apart.
//! * [`closed_loop`] has every client send its next request as soon as
//!   the previous one answered, for a fixed time.
//!
//! In traced runs each request carries a unique trace id in the
//! internal `x-pv-trace` header, so server-side spans join client-side
//! timings; the header never changes a response byte.

use crate::metrics::Timing;
use pv_server::http::{send_request, send_request_traced};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One answered (or failed) request.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Index into the request list.
    pub index: usize,
    /// Trace id sent with the request (0 when untraced).
    pub trace: u64,
    pub timing: Timing,
    pub result: Result<(u16, String), String>,
}

/// POSTs one `/v1/place` body.
pub fn post(addr: SocketAddr, body: &str, trace: u64) -> Result<(u16, String), String> {
    let sent = if trace == 0 {
        send_request(addr, "POST", "/v1/place", body.as_bytes())
    } else {
        send_request_traced(addr, "POST", "/v1/place", body.as_bytes(), trace)
    };
    sent.map_err(|e| e.to_string())
}

/// Runs `per_request(index)` for indices `0..limit` pulled from a shared
/// counter on `clients` threads, until the indices run out or a call
/// returns `None`. Returns the replies in index order.
fn drive(
    clients: usize,
    limit: usize,
    per_request: impl Fn(usize) -> Option<Reply> + Sync,
) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= limit {
                    break;
                }
                match per_request(index) {
                    Some(reply) => replies.lock().expect("reply lock").push(reply),
                    None => break,
                }
            });
        }
    });
    let mut replies = replies.into_inner().expect("reply lock");
    replies.sort_by_key(|r| r.index);
    replies
}

/// Sends `bodies[i]` at `origin + due[i]` (seconds) from `clients`
/// threads. `trace_base` > 0 tags request `i` with id `trace_base + i`.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &[&str],
    due: &[f64],
    clients: usize,
    origin: Instant,
    trace_base: u64,
) -> Vec<Reply> {
    drive(clients, due.len().min(bodies.len()), |index| {
        let due_at = origin + Duration::from_secs_f64(due[index]);
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        let sent = origin.elapsed().as_secs_f64();
        let trace = if trace_base == 0 {
            0
        } else {
            trace_base + index as u64
        };
        let result = post(addr, bodies[index], trace);
        Some(Reply {
            index,
            trace,
            timing: Timing {
                due: due[index],
                sent,
                done: origin.elapsed().as_secs_f64(),
            },
            result,
        })
    })
}

/// Sends `bodies` in order, from `start` and cycling, from `clients`
/// back-to-back threads until `seconds` have passed, so a faster
/// server is never starved by a short list. A reply's `index`
/// is its position in `bodies`; timings have `due == sent`.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[&str],
    start: usize,
    clients: usize,
    seconds: f64,
    trace_base: u64,
) -> Vec<Reply> {
    let origin = Instant::now();
    drive(clients, usize::MAX, |n| {
        let sent = origin.elapsed().as_secs_f64();
        if sent >= seconds {
            return None;
        }
        let trace = if trace_base == 0 {
            0
        } else {
            trace_base + n as u64
        };
        let index = (start + n) % bodies.len();
        let result = post(addr, bodies[index], trace);
        Some(Reply {
            index,
            trace,
            timing: Timing {
                due: sent,
                sent,
                done: origin.elapsed().as_secs_f64(),
            },
            result,
        })
    })
}
