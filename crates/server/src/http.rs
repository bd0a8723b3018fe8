//! A minimal HTTP/1.1 codec over any `BufRead`/`Write` pair.
//!
//! The build is offline — no tokio, no hyper — and the serving layer needs
//! very little of HTTP: parse a request line, headers and a
//! `Content-Length`-framed body; write a status line, a few headers and a
//! JSON body; keep connections alive between requests. This module does
//! exactly that, defensively: every limit (request-line length, header count,
//! body size) is enforced before allocation, and every malformed input is a
//! typed [`HttpError`] the worker maps to a structured 4xx response — never a
//! panic, never an unbounded buffer.

use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

/// Longest accepted request line or header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;

/// The total time budget for receiving one request, armed at its first byte.
///
/// The socket read timeout only bounds each individual `read`, so a
/// drip-feed slowloris client (one byte every few seconds) would otherwise
/// hold a worker for `MAX_LINE_BYTES × MAX_HEADERS × read_timeout` —
/// effectively forever. This deadline arms when the first byte of a request
/// arrives (idle keep-alive time between requests does not count) and is
/// checked on every byte thereafter; a request that has not completed within
/// its budget is answered 400 and dropped.
#[derive(Debug, Clone, Copy)]
pub struct RequestDeadline {
    budget: Duration,
    expires: Option<Instant>,
}

impl RequestDeadline {
    /// A deadline of `budget`, not yet armed.
    pub fn new(budget: Duration) -> Self {
        RequestDeadline {
            budget,
            expires: None,
        }
    }

    /// Arms the deadline at the first byte; errors once it has passed.
    fn tick(&mut self) -> Result<(), HttpError> {
        let now = Instant::now();
        match self.expires {
            None => {
                self.expires = Some(now + self.budget);
                Ok(())
            }
            Some(expires) if now > expires => Err(HttpError::Malformed(format!(
                "request not completed within its {:.0?} budget",
                self.budget
            ))),
            Some(_) => Ok(()),
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request target (path), as sent.
    pub target: String,
    /// Headers in order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the HTTP version defaults to keep-alive (true for 1.1, false
    /// for 1.0, where the connection closes unless the client opts in).
    keep_alive_default: bool,
}

impl HttpRequest {
    /// First value of `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the connection should close after this exchange: an
    /// explicit `Connection: close`, or an HTTP/1.0 request that did not opt
    /// into keep-alive (1.0 clients frame responses by reading to EOF).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => !self.keep_alive_default,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests.
    Eof,
    /// The socket's read timeout elapsed before the request line arrived —
    /// an idle keep-alive connection (close quietly, it is not an error).
    IdleTimeout,
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// The declared body exceeds the server's limit.
    BodyTooLarge {
        /// The server's limit, in bytes.
        limit: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Eof => write!(f, "connection closed"),
            HttpError::IdleTimeout => write!(f, "idle connection timed out"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// True when `e` is the socket-level "read timeout elapsed" error (reported
/// as `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one CRLF- (or bare-LF-) terminated line, bounded by
/// [`MAX_LINE_BYTES`]. A socket read timeout surfaces as [`HttpError::Io`]
/// with a timeout kind — [`read_request`] decides whether that means an idle
/// connection or a stalled request.
fn read_line<R: BufRead>(
    reader: &mut R,
    deadline: &mut RequestDeadline,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::Malformed("truncated line".into()))
                }
            }
            Ok(_) => {
                deadline.tick()?;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".into()))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE_BYTES {
                    return Err(HttpError::Malformed("line too long".into()));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A timeout after partial line bytes is a mid-request stall (the
            // peer started something and stopped): malformed, answered 400.
            // Only a timeout with nothing read propagates as Io for the
            // caller to classify as idleness.
            Err(e) if is_timeout(&e) && !line.is_empty() => {
                return Err(HttpError::Malformed("request stalled mid-line".into()))
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reads one request off the connection. [`HttpError::Eof`] means the peer
/// finished cleanly (keep-alive loop should end); every other error maps to
/// a 4xx or a dropped connection.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    budget: Duration,
) -> Result<HttpRequest, HttpError> {
    let mut deadline = RequestDeadline::new(budget);
    let request_line = match read_line(reader, &mut deadline) {
        Ok(None) => return Err(HttpError::Eof),
        Ok(Some(line)) => line,
        // No request started yet: a timeout here is just an idle keep-alive
        // connection reaching its lifetime (or a slowloris request line —
        // either way the right move is to hang up, not to wait forever).
        Err(HttpError::Io(e)) if is_timeout(&e) => return Err(HttpError::IdleTimeout),
        Err(e) => return Err(e),
    };
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(HttpError::Malformed("not an HTTP/1.x request".into()));
    }
    let keep_alive_default = version != "HTTP/1.0";

    let mut headers = Vec::new();
    loop {
        // Once the request line is in, a stall (timeout) mid-request is the
        // peer's fault: report it as malformed so the worker answers 400 and
        // frees itself instead of blocking on a half-sent request.
        let line = match read_line(reader, &mut deadline) {
            Err(HttpError::Io(e)) if is_timeout(&e) => {
                return Err(HttpError::Malformed("request stalled mid-headers".into()))
            }
            other => other?,
        }
        .ok_or_else(|| HttpError::Malformed("connection closed mid-headers".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed("header line without ':'".into()))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = HttpRequest {
        method,
        target,
        headers,
        body: Vec::new(),
        keep_alive_default,
    };
    if request.header("transfer-encoding").is_some() && request.header("content-length").is_some() {
        // RFC 9112 §6.3: ambiguous framing — the classic request-smuggling
        // vector when a proxy and this server disagree on which wins.
        return Err(HttpError::Malformed(
            "both Content-Length and Transfer-Encoding present".into(),
        ));
    }
    if request
        .headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .count()
        > 1
    {
        // RFC 9110 §8.6: two lengths are ambiguous framing too.
        return Err(HttpError::Malformed("more than one Content-Length".into()));
    }
    if let Some(length) = request.header("content-length") {
        // RFC 9112 §6.3: the value is ASCII digits only (`usize::parse`
        // alone would also take a leading `+`).
        let length: usize = Some(length)
            .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| HttpError::Malformed("unparsable Content-Length".into()))?;
        if length > max_body {
            return Err(HttpError::BodyTooLarge { limit: max_body });
        }
        // Read the body in bounded chunks under the request deadline: a
        // single read_exact would let a drip-feeding client reset the socket
        // timeout on every byte indefinitely.
        let mut body = vec![0u8; length];
        let mut filled = 0usize;
        while filled < length {
            let chunk = (length - filled).min(16 * 1024);
            match reader.read(&mut body[filled..filled + chunk]) {
                Ok(0) => {
                    return Err(HttpError::Malformed(
                        "body shorter than Content-Length".into(),
                    ))
                }
                Ok(n) => {
                    deadline.tick()?;
                    filled += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    return Err(HttpError::Malformed(
                        "body shorter than Content-Length".into(),
                    ))
                }
            }
        }
        request.body = body;
    } else if request.header("transfer-encoding").is_some() {
        // Chunked bodies are out of scope for this serving layer; reject
        // explicitly rather than misframing the connection.
        return Err(HttpError::Malformed(
            "Transfer-Encoding is not supported; send Content-Length".into(),
        ));
    }
    Ok(request)
}

/// The standard reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one JSON response, framed with `Content-Length`.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        status_reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    out.push_str(body);
    writer.write_all(out.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<HttpRequest, HttpError> {
        read_request(&mut BufReader::new(raw), 1024, Duration::from_secs(5))
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let raw = b"POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbodyNEXT";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/explain");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
    }

    #[test]
    fn keep_alive_parses_consecutive_requests() {
        let raw: &[u8] =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(raw);
        let budget = Duration::from_secs(5);
        let first = read_request(&mut reader, 1024, budget).unwrap();
        assert_eq!(first.target, "/healthz");
        let second = read_request(&mut reader, 1024, budget).unwrap();
        assert_eq!(second.target, "/metrics");
        assert!(second.wants_close());
        assert!(matches!(
            read_request(&mut reader, 1024, budget),
            Err(HttpError::Eof)
        ));
    }

    #[test]
    fn http10_defaults_to_close_and_can_opt_into_keep_alive() {
        let old = parse(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(old.wants_close(), "HTTP/1.0 closes unless it opts in");
        let opted = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!opted.wants_close());
        let eleven = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(!eleven.wants_close());
    }

    #[test]
    fn bare_lf_lines_are_accepted() {
        let req = parse(b"GET / HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked_on() {
        let cases: &[&[u8]] = &[
            b"GARBAGE\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\nbody",
            b"POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nbody",
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\nbody",
            b"GET / HTTP/1.1\r\nHost: \xff\xfe\r\n\r\n",
            b"GET / HTTP",
        ];
        for raw in cases {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "accepted {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn limits_are_enforced() {
        let oversized = format!(
            "POST / HTTP/1.1\r\nContent-Length: 2048\r\n\r\n{}",
            "x".repeat(2048)
        );
        assert!(matches!(
            parse(oversized.as_bytes()),
            Err(HttpError::BodyTooLarge { limit: 1024 })
        ));

        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 1));
        assert!(matches!(
            parse(long_line.as_bytes()),
            Err(HttpError::Malformed(_))
        ));

        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-H: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(
            parse(many_headers.as_bytes()),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn responses_are_framed_and_flagged() {
        let mut out = Vec::new();
        write_response(&mut out, 503, &[("Retry-After", "1".into())], "{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut keep = Vec::new();
        write_response(&mut keep, 200, &[], "[]", false).unwrap();
        assert!(String::from_utf8(keep)
            .unwrap()
            .contains("Connection: keep-alive"));
    }
    /// A reader that drips one byte per call, each "arriving" after a
    /// simulated delay — the slowloris pattern the request deadline exists
    /// to bound.
    struct DripReader<'a> {
        bytes: &'a [u8],
        at: usize,
        delay: Duration,
    }

    impl io::Read for DripReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.bytes.len() {
                return Ok(0);
            }
            std::thread::sleep(self.delay);
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    /// A reader that yields its bytes, then reports a read timeout forever.
    struct StallReader<'a> {
        bytes: &'a [u8],
        at: usize,
    }

    impl io::Read for StallReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.bytes.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timed out"));
            }
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn stalls_are_idle_only_before_the_first_byte() {
        // Nothing sent yet: the timeout is plain idleness (close quietly).
        let mut idle = BufReader::new(StallReader { bytes: b"", at: 0 });
        assert!(matches!(
            read_request(&mut idle, 1024, Duration::from_secs(5)),
            Err(HttpError::IdleTimeout)
        ));
        // A partial request line followed by a stall is a malformed request
        // (answered 400), not idleness.
        let mut partial = BufReader::new(StallReader {
            bytes: b"POST /expl",
            at: 0,
        });
        assert!(matches!(
            read_request(&mut partial, 1024, Duration::from_secs(5)),
            Err(HttpError::Malformed(ref m)) if m.contains("stalled")
        ));
    }

    #[test]
    fn drip_fed_requests_hit_the_deadline_not_the_per_read_timeout() {
        // 120 header bytes at ~2ms each would take ~240ms; a 40ms budget
        // must cut the request off long before it completes.
        let raw = format!(
            "POST /explain HTTP/1.1\r\n{}\r\n\r\n",
            "X-Slow: yes\r\n".repeat(8)
        );
        let mut reader = BufReader::new(DripReader {
            bytes: raw.as_bytes(),
            at: 0,
            delay: Duration::from_millis(2),
        });
        let started = std::time::Instant::now();
        let result = read_request(&mut reader, 1024, Duration::from_millis(40));
        assert!(
            matches!(result, Err(HttpError::Malformed(ref m)) if m.contains("budget")),
            "expected a deadline rejection, got {result:?}"
        );
        assert!(started.elapsed() < Duration::from_millis(240));

        // The same bytes under a generous budget parse fine — the deadline
        // only fires on genuinely stalled requests.
        let mut reader = BufReader::new(DripReader {
            bytes: raw.as_bytes(),
            at: 0,
            delay: Duration::from_millis(0),
        });
        let request = read_request(&mut reader, 1024, Duration::from_secs(5)).unwrap();
        assert_eq!(request.target, "/explain");
    }
}
