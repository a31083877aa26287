//! A minimal HTTP/1.1 subset shared by the `hubd` server and the
//! [`crate::RemoteHub`] client: request line + headers + Content-Length
//! bodies, one request per connection (`Connection: close`). This is not
//! a general HTTP implementation — just enough structure that the wire
//! format is debuggable with curl.

use crate::protocol::read_line;
use crate::HubError;
use mh_obs::SpanContext;
use std::io::{BufRead, Write};

/// Upper bound on request/response bodies handled in memory (object
/// streams are parsed incrementally and are not subject to this cap on
/// the client side).
pub const MAX_BODY_BYTES: u64 = 1 << 30;
const MAX_HEADERS: usize = 64;

/// Upper bound on a buffered request head (request line + headers).
/// The server rejects a connection whose head grows past this without
/// terminating — a slowloris sending one header byte at a time hits the
/// per-state deadline first, but a fast sender of endless headers hits
/// this cap immediately.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path portion of the target, without the query string.
    pub path: String,
    /// Raw query string (after `?`), if any.
    pub query: Option<String>,
    /// Distributed trace context from the `mh-trace` header
    /// (`SpanContext::NONE` when absent or malformed).
    pub trace: SpanContext,
    pub body: Vec<u8>,
}

/// A parsed response status line + headers; the body is read separately
/// (buffered or streamed, per endpoint).
#[derive(Debug)]
pub struct ResponseHead {
    pub status: u16,
    pub content_length: u64,
}

pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A request head parsed incrementally from a connection's read buffer:
/// everything except the body, plus how many buffer bytes the head
/// consumed.
#[derive(Debug)]
pub struct RequestHead {
    pub method: String,
    pub path: String,
    pub query: Option<String>,
    pub content_length: u64,
    /// Distributed trace context from the `mh-trace` header
    /// (`SpanContext::NONE` when absent or malformed).
    pub trace: SpanContext,
    /// Bytes of `buf` occupied by the head (the body starts here).
    pub head_len: usize,
}

/// Byte offset just past the head terminator (the blank line), if the
/// buffer holds a complete head yet. Accepts `\r\n\r\n` and bare `\n\n`
/// (and the mixed forms), matching the tolerant line reader that parses
/// the head's lines.
fn head_end(buf: &[u8]) -> Option<usize> {
    for (idx, w) in buf.windows(2).enumerate() {
        if w == b"\n\n" {
            return Some(idx + 2);
        }
        if w == b"\n\r" && buf.get(idx + 2) == Some(&b'\n') {
            return Some(idx + 3);
        }
    }
    None
}

/// Incremental request-head parse over a partially-received buffer.
///
/// * `Ok(None)` — head not complete yet, keep reading.
/// * `Ok(Some(h))` — head parsed; the body is `buf[h.head_len..]` as it
///   arrives.
/// * `Err(_)` — the bytes can never become a valid request (bad request
///   line, header flood past [`MAX_HEAD_BYTES`], bad content-length).
// mh-audit: no_panic_zone
pub fn parse_request_head(buf: &[u8]) -> Result<Option<RequestHead>, HubError> {
    let Some(end) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HubError::Protocol(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes without terminating"
            )));
        }
        return Ok(None);
    };
    let mut r = buf.get(..end).unwrap_or_default();
    let line = read_line(&mut r)?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(HubError::Protocol(format!("bad request line '{line}'"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HubError::Protocol(format!(
            "unsupported version '{version}'"
        )));
    }
    let headers = read_headers(&mut r)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    Ok(Some(RequestHead {
        method: method.to_string(),
        path,
        query,
        content_length: headers.content_length,
        trace: headers.trace,
        head_len: end,
    }))
}

/// Render a response head as bytes, with an optional `Retry-After` (the
/// backpressure signal on a 503).
pub fn response_head_bytes(status: u16, content_length: u64, retry_after: Option<u32>) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Length: {content_length}\r\nContent-Type: application/octet-stream\r\nConnection: close\r\n",
        status_reason(status)
    );
    if let Some(secs) = retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// Headers this protocol subset cares about.
struct HeaderInfo {
    content_length: u64,
    trace: SpanContext,
}

/// Read headers until the blank line; extracts Content-Length (0 if
/// absent) and the `mh-trace` context (NONE if absent; a malformed value
/// degrades to NONE rather than failing the request).
// mh-audit: no_panic_zone
fn read_headers<R: BufRead>(r: &mut R) -> Result<HeaderInfo, HubError> {
    let mut info = HeaderInfo {
        content_length: 0,
        trace: SpanContext::NONE,
    };
    for _ in 0..MAX_HEADERS {
        let line = read_line(r)?;
        if line.is_empty() {
            return Ok(info);
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                info.content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HubError::Protocol(format!("bad content-length '{value}'")))?;
            } else if name.eq_ignore_ascii_case("mh-trace") {
                info.trace = SpanContext::from_header(value).unwrap_or(SpanContext::NONE);
            }
        }
    }
    Err(HubError::Protocol("too many headers".to_string()))
}

/// Write a request with a body. A non-empty `trace` context is propagated
/// as the `mh-trace` header (`<trace-id-hex32> <parent-span-id>`).
pub fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    target: &str,
    host: &str,
    trace: SpanContext,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        w,
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    if trace.trace != 0 {
        write!(w, "mh-trace: {}\r\n", trace.to_header())?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Read a response status line + headers.
// mh-audit: no_panic_zone
pub fn read_response_head<R: BufRead>(r: &mut R) -> Result<ResponseHead, HubError> {
    let line = read_line(r)?;
    let mut parts = line.split(' ');
    let (version, status) = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) => (v, s),
        _ => return Err(HubError::Protocol(format!("bad status line '{line}'"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HubError::Protocol(format!(
            "unsupported version '{version}'"
        )));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| HubError::Protocol(format!("bad status code '{status}'")))?;
    let content_length = read_headers(r)?.content_length;
    Ok(ResponseHead {
        status,
        content_length,
    })
}

/// Read a fully buffered response body of the declared length.
// mh-audit: no_panic_zone
pub fn read_body<R: BufRead>(r: &mut R, head: &ResponseHead) -> Result<Vec<u8>, HubError> {
    if head.content_length > MAX_BODY_BYTES {
        return Err(HubError::Protocol(format!(
            "response body too large ({} bytes)",
            head.content_length
        )));
    }
    let mut body = vec![0u8; head.content_length as usize];
    r.read_exact(&mut body)
        .map_err(|e| HubError::ConnectionDropped(format!("mid-response-body: {e}")))?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_roundtrip() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "POST",
            "/objects/m?x=1",
            "h:1",
            SpanContext::NONE,
            b"have1\nhave2\n",
        )
        .unwrap();
        // No trace context → no header on the wire.
        assert!(!String::from_utf8_lossy(&wire).contains("mh-trace"));
        let req = parse_request_head(&wire).unwrap().expect("complete head");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/objects/m");
        assert_eq!(req.query.as_deref(), Some("x=1"));
        assert_eq!(req.trace, SpanContext::NONE);
        assert_eq!(&wire[req.head_len..], b"have1\nhave2\n");
    }

    #[test]
    fn trace_context_crosses_the_wire() {
        let ctx = SpanContext {
            trace: 0x0123_4567_89ab_cdef_0011_2233_4455_6677,
            parent: 99,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/manifest/m", "h:1", ctx, b"").unwrap();
        let text = String::from_utf8_lossy(&wire);
        assert!(text.contains("mh-trace: 0123456789abcdef0011223344556677 99\r\n"));
        let head = parse_request_head(&wire).unwrap().expect("complete");
        assert_eq!(head.trace, ctx);
    }

    #[test]
    fn malformed_trace_header_degrades_to_none() {
        for bad in [
            "mh-trace: zz\r\n",
            "mh-trace: deadbeef 1\r\n",
            "mh-trace: 0123456789abcdef0011223344556677\r\n",
            "mh-trace:\r\n",
        ] {
            let wire = format!("GET /repos HTTP/1.1\r\n{bad}Content-Length: 0\r\n\r\n");
            let head = parse_request_head(wire.as_bytes())
                .unwrap()
                .expect("complete");
            assert_eq!(head.trace, SpanContext::NONE, "input: {bad:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = response_head_bytes(404, 5, None);
        wire.extend_from_slice(b"gone\n");
        let mut r = BufReader::new(&wire[..]);
        let head = read_response_head(&mut r).unwrap();
        assert_eq!(head.status, 404);
        assert_eq!(read_body(&mut r, &head).unwrap(), b"gone\n");
    }

    #[test]
    fn garbage_is_a_protocol_error() {
        assert!(matches!(
            parse_request_head(b"NOT-HTTP\r\n\r\n").unwrap_err(),
            HubError::Protocol(_)
        ));
    }

    #[test]
    fn incremental_head_parse_matches_blocking_parse() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "POST",
            "/objects/m?x=1",
            "h:1",
            SpanContext::NONE,
            b"abc",
        )
        .unwrap();
        // Feed the wire byte by byte: no prefix short of the blank line
        // completes the head.
        let mut complete_at = None;
        for n in 0..=wire.len() {
            match parse_request_head(&wire[..n]).unwrap() {
                Some(h) => {
                    complete_at.get_or_insert(n);
                    assert_eq!(h.method, "POST");
                    assert_eq!(h.path, "/objects/m");
                    assert_eq!(h.query.as_deref(), Some("x=1"));
                    assert_eq!(h.content_length, 3);
                    assert_eq!(&wire[h.head_len..], b"abc");
                }
                None => assert!(complete_at.is_none()),
            }
        }
        assert!(complete_at.is_some(), "full wire must parse");
    }

    #[test]
    fn incremental_head_parse_accepts_bare_lf() {
        let wire = b"GET /repos HTTP/1.1\nContent-Length: 0\n\n";
        let h = parse_request_head(wire).unwrap().expect("complete head");
        assert_eq!(h.path, "/repos");
        assert_eq!(h.head_len, wire.len());
    }

    #[test]
    fn incremental_head_parse_caps_unterminated_heads() {
        let flood = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(matches!(
            parse_request_head(&flood),
            Err(HubError::Protocol(_))
        ));
        // Under the cap and unterminated: still waiting.
        assert!(parse_request_head(&flood[..100]).unwrap().is_none());
    }

    #[test]
    fn response_head_bytes_carries_retry_after() {
        let head = String::from_utf8(response_head_bytes(503, 5, Some(1))).unwrap();
        assert!(head.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(head.contains("Retry-After: 1\r\n"));
        assert!(head.ends_with("\r\n\r\n"));
        let plain = String::from_utf8(response_head_bytes(200, 0, None)).unwrap();
        assert!(!plain.contains("Retry-After"));
    }
}
