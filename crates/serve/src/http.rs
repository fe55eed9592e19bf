//! Minimal HTTP/1.1 layer: an **incremental** request parser plus response
//! framing helpers.
//!
//! Implements exactly the slice of RFC 9112 the gateway needs: request-line
//! parsing, header parsing with hard limits, `Content-Length` bodies,
//! keep-alive negotiation and status-line responses. Chunked
//! transfer-encoding is **not** supported (a request declaring it gets
//! `411 Length Required`); the gateway's clients always send sized bodies.
//!
//! The core is [`RequestParser`], a push-style state machine that consumes
//! arbitrary byte chunks — a reactor feeds it whatever `read(2)` returned —
//! and yields complete [`Request`]s. Parsing is **chunking-invariant**:
//! any split of a byte stream into chunks (1-byte drips, split CRLFs, split
//! bodies) parses to the same requests, and a malformed stream fails with
//! the same error at the same byte offset, as the whole-buffer parse. It is
//! the only server-side parse implementation; [`Request`]s reach the
//! gateway through nothing else. Responses are framed by
//! [`encode_response_with`] and read back on the client side by
//! [`read_response`].
//!
//! Every malformed input maps to an error value (never a panic), and every
//! read is bounded by the caller-supplied limits plus the socket read
//! timeout or reactor idle deadline, so a hostile peer cannot hang the
//! server.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;

/// Hard limits applied while parsing one request.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Maximum request-line length in bytes.
    pub max_request_line: usize,
    /// Maximum single header line length in bytes.
    pub max_header_line: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_headers: 64,
            max_body: 64 * 1024 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), as received.
    pub path: String,
    /// True for `HTTP/1.0` requests (close-by-default framing).
    pub http10: bool,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request.
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close` is sent;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive` is sent.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => !self.http10,
        }
    }
}

/// Why a request could not be parsed. Each variant maps to the 4xx status
/// the server should answer with before closing the connection.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly before sending any byte of a
    /// new request — the normal end of a keep-alive session, not an error
    /// to report.
    Closed,
    /// The connection died or timed out mid-request.
    Io(std::io::Error),
    /// The request line or a header is malformed → `400`.
    Malformed(String),
    /// The request line exceeds the limit → `414`.
    UriTooLong,
    /// A header line or the header count exceeds the limit → `431`.
    HeadersTooLarge,
    /// `Content-Length` exceeds the limit → `413`.
    BodyTooLarge,
    /// A `Transfer-Encoding` this server does not implement → `411`
    /// (clients must send sized bodies).
    LengthRequired,
}

impl HttpError {
    /// The HTTP status code this parse error should be answered with
    /// (`Closed`/`Io` have none: the connection is just dropped).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Closed | HttpError::Io(_) => None,
            HttpError::Malformed(_) => Some((400, "Bad Request")),
            HttpError::UriTooLong => Some((414, "URI Too Long")),
            HttpError::HeadersTooLarge => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge => Some((413, "Content Too Large")),
            HttpError::LengthRequired => Some((411, "Length Required")),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::UriTooLong => write!(f, "request line too long"),
            HttpError::HeadersTooLarge => write!(f, "headers too large"),
            HttpError::BodyTooLarge => write!(f, "body too large"),
            HttpError::LengthRequired => write!(f, "missing content-length"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parse failure with the byte offset (into the connection's request
/// stream, counting every byte the parser consumed) at which it was
/// detected. Detection offsets are **chunking-invariant**: feeding the same
/// byte stream in any chunk split fails at the same offset.
#[derive(Debug)]
pub struct ParseError {
    /// What went wrong (one of the 4xx-mapped variants; the incremental
    /// parser never produces `Closed` or `Io`).
    pub error: HttpError,
    /// Total bytes consumed by the parser when the error was detected.
    pub offset: u64,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.error, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Internal states of [`RequestParser`].
#[derive(Debug)]
enum ParseState {
    /// Accumulating the request line (leading empty lines are skipped).
    Line,
    /// Accumulating header lines of a partially parsed request.
    Headers { method: String, path: String, http10: bool, headers: Vec<(String, String)> },
    /// Copying `remaining` body bytes into the request.
    Body { request: Request, remaining: usize },
    /// A previous feed failed; the connection's framing is unreliable.
    Failed,
}

/// Push-style incremental HTTP/1.1 request parser.
///
/// Feed it arbitrary byte chunks as they arrive; it consumes input up to at
/// most one complete request per call (so pipelined requests stay framed —
/// the caller re-feeds the remainder) and returns the parsed [`Request`]
/// when its last body byte lands. The request line and headers are scanned
/// byte-at-a-time, which makes limit violations and malformed-input errors
/// fire at a deterministic byte offset regardless of how the stream was
/// chunked; bodies are copied in bulk.
///
/// After an error the parser stays [`RequestParser::failed`] — byte framing
/// after a malformed request is unreliable, so the connection must be
/// closed (after a best-effort 4xx).
#[derive(Debug)]
pub struct RequestParser {
    limits: HttpLimits,
    state: ParseState,
    /// Raw bytes of the line being accumulated (terminator included while
    /// counting, stripped at completion).
    line: Vec<u8>,
    /// Total bytes consumed over the parser's lifetime (across requests).
    consumed: u64,
}

impl RequestParser {
    /// A fresh parser enforcing `limits`.
    pub fn new(limits: HttpLimits) -> RequestParser {
        RequestParser { limits, state: ParseState::Line, line: Vec::new(), consumed: 0 }
    }

    /// True when the parser sits at a request boundary with no partial
    /// input buffered — the state in which a peer close is the clean end
    /// of a keep-alive connection rather than a truncation.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ParseState::Line) && self.line.is_empty()
    }

    /// True once a feed has failed; the connection must be closed.
    pub fn failed(&self) -> bool {
        matches!(self.state, ParseState::Failed)
    }

    /// Total bytes consumed so far (across all requests on the stream).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The error a peer EOF at the current parse position maps to:
    /// truncated line/headers are `Malformed` (answered `400`), a truncated
    /// body is an I/O-level truncation (connection just dropped), and EOF
    /// at a request boundary is the clean `Closed`.
    pub fn eof_error(&self) -> HttpError {
        match &self.state {
            ParseState::Line if self.line.is_empty() => HttpError::Closed,
            ParseState::Line => HttpError::Malformed("eof inside line".into()),
            ParseState::Headers { .. } => {
                if self.line.is_empty() {
                    HttpError::Malformed("eof inside headers".into())
                } else {
                    HttpError::Malformed("eof inside line".into())
                }
            }
            ParseState::Body { .. } => HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof inside body",
            )),
            ParseState::Failed => HttpError::Malformed("parser already failed".into()),
        }
    }

    fn fail(&mut self, error: HttpError) -> ParseError {
        self.state = ParseState::Failed;
        ParseError { error, offset: self.consumed }
    }

    /// Consumes bytes from `input`. Returns how many bytes were consumed
    /// plus the completed request, if its final byte was reached. Consuming
    /// stops right after a completed request — re-feed the remainder to
    /// parse the next pipelined request. On error the consumed count is
    /// whatever was eaten up to the offending byte and the parser is dead.
    pub fn feed(&mut self, input: &[u8]) -> Result<(usize, Option<Request>), ParseError> {
        let mut i = 0usize;
        while i < input.len() {
            match &mut self.state {
                ParseState::Failed => {
                    return Err(ParseError {
                        error: HttpError::Malformed("parser already failed".into()),
                        offset: self.consumed,
                    })
                }
                ParseState::Body { request, remaining } => {
                    let take = (*remaining).min(input.len() - i);
                    request.body.extend_from_slice(&input[i..i + take]);
                    *remaining -= take;
                    i += take;
                    self.consumed += take as u64;
                    if *remaining == 0 {
                        let request = std::mem::take(request);
                        self.state = ParseState::Line;
                        return Ok((i, Some(request)));
                    }
                    // Body exhausted the chunk.
                    return Ok((i, None));
                }
                _ => {
                    // Request line or header section: accumulate one byte.
                    let byte = input[i];
                    i += 1;
                    self.consumed += 1;
                    let max = match self.state {
                        ParseState::Line => self.limits.max_request_line,
                        _ => self.limits.max_header_line,
                    };
                    // A line's limit counts its content only: raw line
                    // bytes (terminator included) may not exceed `max + 2`,
                    // so a line of exactly `max` bytes plus CRLF is legal
                    // and [`read_response`] applies the same bound.
                    if self.line.len() + 1 > max + 2 {
                        let over = match self.state {
                            ParseState::Line => HttpError::UriTooLong,
                            _ => HttpError::HeadersTooLarge,
                        };
                        return Err(self.fail(over));
                    }
                    if byte != b'\n' {
                        self.line.push(byte);
                        continue;
                    }
                    while self.line.last() == Some(&b'\r') {
                        self.line.pop();
                    }
                    let line = match String::from_utf8(std::mem::take(&mut self.line)) {
                        Ok(l) => l,
                        Err(_) => {
                            return Err(
                                self.fail(HttpError::Malformed("non-UTF-8 header bytes".into()))
                            )
                        }
                    };
                    match self.on_line(line) {
                        Ok(Some(request)) => return Ok((i, Some(request))),
                        Ok(None) => {}
                        Err(e) => return Err(self.fail(e)),
                    }
                }
            }
        }
        Ok((i, None))
    }

    /// Handles one completed (terminator-stripped) line. `Ok(Some)` is a
    /// finished body-less request.
    fn on_line(&mut self, line: String) -> Result<Option<Request>, HttpError> {
        match &mut self.state {
            ParseState::Line => {
                if line.is_empty() {
                    // RFC 9112 allows (skipped) empty lines before the
                    // request line.
                    return Ok(None);
                }
                let (method, path, http10) = parse_request_line(&line)?;
                self.state = ParseState::Headers { method, path, http10, headers: Vec::new() };
                Ok(None)
            }
            ParseState::Headers { method, path, http10, headers } => {
                if !line.is_empty() {
                    if headers.len() >= self.limits.max_headers {
                        return Err(HttpError::HeadersTooLarge);
                    }
                    let (name, value) = line.split_once(':').ok_or_else(|| {
                        HttpError::Malformed(format!("header without ':' ({line:?})"))
                    })?;
                    if name.is_empty() || name.contains(' ') {
                        return Err(HttpError::Malformed("invalid header name".into()));
                    }
                    headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
                    return Ok(None);
                }
                // Blank line: headers complete. Validate framing.
                let request = Request {
                    method: std::mem::take(method),
                    path: std::mem::take(path),
                    http10: *http10,
                    headers: std::mem::take(headers),
                    body: Vec::new(),
                };
                if request
                    .header("transfer-encoding")
                    .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
                {
                    return Err(HttpError::LengthRequired);
                }
                // RFC 9112 §6.3: duplicate Content-Length headers are a
                // framing desync (request-smuggling vector on keep-alive
                // connections) and must be rejected.
                if request.headers.iter().filter(|(k, _)| k == "content-length").count() > 1 {
                    return Err(HttpError::Malformed("duplicate content-length headers".into()));
                }
                let content_length =
                    match request.header("content-length") {
                        Some(v) => Some(v.trim().parse::<usize>().map_err(|_| {
                            HttpError::Malformed(format!("bad content-length {v:?}"))
                        })?),
                        None => None,
                    };
                match content_length {
                    Some(n) if n > self.limits.max_body => Err(HttpError::BodyTooLarge),
                    Some(n) if n > 0 => {
                        let mut request = request;
                        request.body.reserve_exact(n.min(1 << 20));
                        self.state = ParseState::Body { request, remaining: n };
                        Ok(None)
                    }
                    // RFC 9112: no (or zero) Content-Length and no
                    // Transfer-Encoding means no body — legal even for
                    // POST (`curl -X POST` sends exactly this).
                    _ => {
                        self.state = ParseState::Line;
                        Ok(Some(request))
                    }
                }
            }
            _ => unreachable!("on_line is only called from line-accumulating states"),
        }
    }
}

impl Default for Request {
    fn default() -> Request {
        Request {
            method: String::new(),
            path: String::new(),
            http10: false,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }
}

/// Splits and validates `METHOD TARGET HTTP/1.x`.
fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
    let path = parts.next().ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version =
        parts.next().ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens in request line".into()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }
    if !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpError::Malformed("invalid method".into()));
    }
    Ok((method.to_string(), path.to_string(), version == "HTTP/1.0"))
}

/// Serializes one response (status line, headers, body) into a byte
/// buffer. This is the single framing implementation: every byte the
/// reactor's outbox writes comes from here, so the `Content-Length` always
/// matches the body and a response's framing does not depend on the route
/// that produced it.
pub fn encode_response_with(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// One parsed HTTP response (client side, for the load generator and
/// tests).
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if it is.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line of at most `max` bytes.
/// Returns `Ok(None)` on clean EOF before the first byte. (Client-side
/// helper for [`read_response`]; the server side parses through
/// [`RequestParser`].)
fn read_line(
    reader: &mut BufReader<impl Read>,
    max: usize,
    over_limit: HttpError,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if buf.is_empty() {
            // EOF.
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("eof inside line".into()));
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map(|i| i + 1).unwrap_or(buf.len());
        if line.len() + take > max + 2 {
            return Err(over_limit);
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if nl.is_some() {
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(
                String::from_utf8(line)
                    .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".into()))?,
            ));
        }
    }
}

/// Reads one response from the stream (client side). Requires a
/// `Content-Length` header, which this server always sends.
pub fn read_response(reader: &mut BufReader<&TcpStream>) -> Result<Response, HttpError> {
    let limits = HttpLimits::default();
    let line = read_line(reader, limits.max_request_line, HttpError::UriTooLong)?
        .ok_or(HttpError::Closed)?;
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad status line {line:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, limits.max_header_line, HttpError::HeadersTooLarge)?
            .ok_or_else(|| HttpError::Malformed("eof inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let n: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| HttpError::Malformed("response without content-length".into()))?;
    let mut body = vec![0u8; n];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(Response { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// Parses `input` as one connection's byte stream: [`RequestParser::feed`]
    /// until a request completes, and [`RequestParser::eof_error`] when the
    /// stream ends first.
    fn parse_bytes(input: &[u8]) -> Result<Request, HttpError> {
        parse_bytes_with(input, &HttpLimits::default())
    }

    fn parse_bytes_with(input: &[u8], limits: &HttpLimits) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new(*limits);
        let mut rest = input;
        while !rest.is_empty() {
            let (n, request) = parser.feed(rest).map_err(|e| e.error)?;
            if let Some(request) = request {
                return Ok(request);
            }
            rest = &rest[n..];
        }
        Err(parser.eof_error())
    }

    #[test]
    fn parses_a_simple_get() {
        let r = parse_bytes(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("GET", "/healthz"));
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.keep_alive());
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_a_sized_post_body() {
        let r =
            parse_bytes(b"POST /v1/localize HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let r = parse_bytes(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close_unless_keep_alive_requested() {
        let r = parse_bytes(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(r.http10);
        assert!(!r.keep_alive(), "HTTP/1.0 framing is close-by-default");
        let r = parse_bytes(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive(), "explicit keep-alive opts back in");
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(parse_bytes(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"G@T /x HTTP/1.1\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            // Duplicate Content-Length = framing desync (smuggling vector).
            b"POST /x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 30\r\n\r\n",
        ] {
            assert!(
                matches!(parse_bytes(bad), Err(HttpError::Malformed(_))),
                "{:?} not rejected as malformed",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn post_without_length_has_empty_body_but_chunked_is_rejected() {
        // RFC 9112: absent Content-Length/Transfer-Encoding = no body,
        // which is exactly what `curl -X POST` sends.
        let r = parse_bytes(b"POST /admin/shutdown HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.body.is_empty());
        assert!(matches!(
            parse_bytes(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::LengthRequired)
        ));
    }

    #[test]
    fn limits_map_to_the_right_errors() {
        let limits =
            HttpLimits { max_request_line: 32, max_header_line: 32, max_headers: 2, max_body: 8 };
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        assert!(matches!(
            parse_bytes_with(long_path.as_bytes(), &limits),
            Err(HttpError::UriTooLong)
        ));
        let long_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "v".repeat(100));
        assert!(matches!(
            parse_bytes_with(long_header.as_bytes(), &limits),
            Err(HttpError::HeadersTooLarge)
        ));
        let many_headers = b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        assert!(matches!(parse_bytes_with(many_headers, &limits), Err(HttpError::HeadersTooLarge)));
        let big_body = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(parse_bytes_with(big_body, &limits), Err(HttpError::BodyTooLarge)));
    }

    #[test]
    fn truncated_body_is_an_io_error_not_a_hang() {
        // Declares 10 bytes, sends 3, then closes: the EOF is a truncation.
        let out = parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert!(matches!(out, Err(HttpError::Io(_))), "{out:?}");
    }

    #[test]
    fn response_round_trips_through_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let bytes =
                encode_response_with(200, "OK", "application/json", b"{\"ok\":true}", true, &[]);
            stream.write_all(&bytes).unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(&stream);
        let resp = read_response(&mut reader).unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.body_str(), Some("{\"ok\":true}"));
    }
}
