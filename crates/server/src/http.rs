//! A deliberately small HTTP/1.1 layer: enough protocol to serve the
//! three service endpoints over `std::net` with no dependencies, and a
//! matching one-shot client used by the tests and the `loadgen` harness.
//!
//! One request per connection (`Connection: close` is always sent), bodies
//! are sized by `Content-Length` only (no chunked encoding), and requests
//! are bounded: oversized headers or bodies are rejected before any
//! allocation proportional to the claimed size.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-operation socket timeout of the one-shot client (reads and
/// writes) and of the server's response writes. Sized for the slowest
/// legitimate exchange — a client waiting out a cold `/v1/place`
/// extraction at production clock resolution. The server does not read
/// requests under it: a request must arrive whole within
/// [`READ_DEADLINE`](crate::READ_DEADLINE) of `accept`.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Upper bound on a request body (64 KiB — a spec string is ~200 bytes).
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// Upper bound on one header line.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of header lines.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: method, target path, and the (possibly empty) body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), verbatim.
    pub method: String,
    /// Request target (`/v1/place`), verbatim; query strings are kept.
    pub target: String,
    /// The request body, `Content-Length` bytes.
    pub body: Vec<u8>,
    /// Trace id from the internal `x-pv-trace` header, when the peer
    /// (the router, forwarding to its shards) supplied one. Hop-by-hop
    /// observability plumbing only: responses are written from a fixed
    /// header block and never echo request headers, so this can never
    /// reach a client byte.
    pub trace: Option<u64>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Transport error (including timeouts and early EOF).
    Io(std::io::Error),
    /// Syntactically invalid request; the message is client-safe.
    Malformed(String),
    /// The declared body or a header exceeds the configured bounds.
    TooLarge,
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e)
    }
}

fn read_line_bounded<R: BufRead>(reader: &mut R) -> Result<String, RequestError> {
    let mut line = String::new();
    let mut chunk = [0u8; 1];
    // Byte-at-a-time is fine behind a BufReader and keeps the bound exact.
    loop {
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            )));
        }
        let [byte] = chunk;
        if byte == b'\n' {
            if line.ends_with('\r') {
                line.pop();
            }
            return Ok(line);
        }
        if line.len() >= MAX_LINE_BYTES {
            return Err(RequestError::TooLarge);
        }
        line.push(byte as char);
    }
}

/// Reads and parses one request from `reader`.
///
/// # Errors
///
/// [`RequestError::Malformed`] on protocol violations,
/// [`RequestError::TooLarge`] when a bound is exceeded, and
/// [`RequestError::Io`] on transport failures.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<HttpRequest, RequestError> {
    let request_line = read_line_bounded(reader)?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "bad request line '{request_line}'"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported version '{version}'"
        )));
    }

    let mut content_length = 0usize;
    let mut trace = None;
    for _ in 0..MAX_HEADERS {
        let line = read_line_bounded(reader)?;
        if line.is_empty() {
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            return Ok(HttpRequest {
                method,
                target,
                body,
                trace,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("bad header '{line}'")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| RequestError::Malformed("bad Content-Length".into()))?;
            if content_length > MAX_BODY_BYTES {
                return Err(RequestError::TooLarge);
            }
        } else if name.trim().eq_ignore_ascii_case(pv_obs::TRACE_HEADER) {
            // Unparseable trace ids are ignored, not rejected: a broken
            // observability header must never fail a request.
            trace = pv_obs::parse_trace_id(value);
        }
    }
    Err(RequestError::TooLarge)
}

/// The standard reason phrase of the status codes the service uses.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete `Connection: close` response.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    writer.write_all(body)?;
    writer.flush()
}

/// One-shot HTTP client: opens a connection to `addr`, sends a single
/// request, and returns `(status, body)`. Used by the integration tests
/// and the `loadgen` harness — real TCP, same wire format as any browser
/// or `curl`.
///
/// # Errors
///
/// Propagates connection/transport errors; a response that is not
/// parseable HTTP surfaces as [`std::io::ErrorKind::InvalidData`].
pub fn send_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, String)> {
    send_request_impl(addr, method, path, body, None)
}

/// [`send_request`] with the internal `x-pv-trace` header attached —
/// how the router hands a request's trace id to the owning shard. Only
/// the router uses this; external clients never see or send the header.
///
/// # Errors
///
/// Same as [`send_request`].
pub fn send_request_traced(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    trace: u64,
) -> std::io::Result<(u16, String)> {
    send_request_impl(addr, method, path, body, Some(trace))
}

fn send_request_impl(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    trace: Option<u64>,
) -> std::io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut writer = &stream;
    let trace_header = trace.map_or(String::new(), |id| {
        format!(
            "{}: {}\r\n",
            pv_obs::TRACE_HEADER,
            pv_obs::format_trace_id(id)
        )
    });
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: pv\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{trace_header}Connection: close\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body)?;
    writer.flush()?;

    let mut reader = BufReader::new(&stream);
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("bad status line '{}'", status_line.trim())))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(value.trim().parse().map_err(|_| bad("bad length"))?);
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    String::from_utf8(body)
        .map(|text| (status, text))
        .map_err(|_| bad("non-UTF-8 response body"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_post_with_body() {
        let raw = "POST /v1/place HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/place");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let raw = "GET /v1/healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert_eq!(req.trace, None);
    }

    #[test]
    fn parses_the_internal_trace_header_and_ignores_garbage_in_it() {
        let raw = "POST /v1/place HTTP/1.1\r\nx-pv-trace: 00000000deadbeef\r\nContent-Length: 2\r\n\r\n{}";
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.trace, Some(0xdead_beef));

        let raw = "POST /v1/place HTTP/1.1\r\nX-PV-Trace: not-hex\r\nContent-Length: 0\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.trace, None, "garbage trace ids degrade to None");
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        for raw in ["\r\n\r\n", "GET\r\n\r\n", "GET / SP TP/9\r\n\r\n"] {
            assert!(
                matches!(
                    read_request(&mut Cursor::new(raw)),
                    Err(RequestError::Malformed(_))
                ),
                "{raw:?}"
            );
        }
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert!(matches!(
            read_request(&mut Cursor::new(huge)),
            Err(RequestError::TooLarge)
        ));
        let truncated = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            read_request(&mut Cursor::new(truncated)),
            Err(RequestError::Io(_))
        ));
    }

    #[test]
    fn response_writer_emits_parseable_http() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{\"k\": 1}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 8\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("{\"k\": 1}"));
    }

    #[test]
    fn reasons_cover_service_statuses() {
        for status in [200u16, 400, 404, 405, 413, 422, 503] {
            assert!(!reason(status).is_empty());
        }
        assert_eq!(reason(599), "Internal Server Error");
    }
}
