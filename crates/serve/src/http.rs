//! A minimal, defensive HTTP/1.1 layer over `TcpStream`.
//!
//! Just enough of RFC 9112 for the JSON-RPC service: request line, headers,
//! `Content-Length` bodies, `Connection: close` responses. Every limit is
//! explicit — header block and body sizes are capped and the socket carries
//! a read timeout before parsing starts — so a slow, malicious or simply
//! confused client can tie up one connection thread for a bounded time and
//! a bounded number of bytes, never the whole service.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum accepted request-line + header block, in bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// Maximum accepted request body, in bytes. Inline `.sasm` programs are the
/// largest legitimate payload; 4 MiB is orders of magnitude above them.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// Lower-cased header names with their trimmed values.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == &name.to_ascii_lowercase()).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each maps to one response status.
#[derive(Debug)]
pub enum ReadError {
    /// Peer closed before sending anything (not an error worth a response).
    Closed,
    /// Malformed request line / headers, or an unsupported framing.
    Bad(String),
    /// Head or body over the configured limits.
    TooLarge,
    /// Socket error or read timeout.
    Io(std::io::Error),
}

/// Reads one request from the stream. The caller is expected to have set a
/// read timeout; a timeout mid-request surfaces as [`ReadError::Io`].
/// At most `MAX_HEAD + 2048` head bytes and `MAX_BODY` body bytes are
/// ever read (property-tested in `tests/http_prop.rs`).
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, ReadError> {
    // Accumulate bytes until the blank line ending the header block.
    let mut head = Vec::new();
    let mut rest = Vec::new();
    let mut buf = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = find_head_end(&head) {
            break pos;
        }
        if head.len() > MAX_HEAD {
            return Err(ReadError::TooLarge);
        }
        let n = match stream.read(&mut buf) {
            Ok(0) if head.is_empty() => return Err(ReadError::Closed),
            Ok(0) => return Err(ReadError::Bad("eof inside header block".into())),
            Ok(n) => n,
            Err(e) => return Err(ReadError::Io(e)),
        };
        head.extend_from_slice(&buf[..n]);
    };
    rest.extend_from_slice(&head[head_end..]);
    head.truncate(head_end);

    let text = String::from_utf8_lossy(&head);
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(ReadError::Bad(format!("malformed request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(format!("unsupported version {version:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Bad(format!("malformed header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut req = Request { method, path, headers, body: rest };

    if req.header("transfer-encoding").is_some() {
        return Err(ReadError::Bad("chunked bodies are not supported".into()));
    }
    let length: usize = match req.header("content-length") {
        None => 0,
        Some(v) => v.parse().map_err(|_| ReadError::Bad(format!("bad content-length {v:?}")))?,
    };
    if length > MAX_BODY {
        return Err(ReadError::TooLarge);
    }
    while req.body.len() < length {
        let want = (length - req.body.len()).min(buf.len());
        let n = match stream.read(&mut buf[..want]) {
            Ok(0) => return Err(ReadError::Bad("eof inside body".into())),
            Ok(n) => n,
            Err(e) => return Err(ReadError::Io(e)),
        };
        req.body.extend_from_slice(&buf[..n]);
    }
    req.body.truncate(length); // ignore pipelined bytes; we always close
    Ok(req)
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Writes one `Connection: close` response. Errors are returned for the
/// caller to log; a peer that hung up mid-response costs nothing.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Writes the head of a streaming response (no `Content-Length`; the body
/// is produced incrementally and the connection close delimits it). Used
/// by the `GET /watch/<job>` server-sent-events bridge.
pub fn stream_head(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    let out = format!(
        "HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\ncache-control: no-cache\r\nconnection: close\r\n\r\n"
    );
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Escapes a string for embedding in a JSON document: the workspace's one
/// escaper, `sas_telemetry::json::escape`, under this crate's name for it.
pub use sas_telemetry::json::escape as json_escape;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(mut raw: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut raw)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\nX-Trace: alice\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/rpc");
        assert_eq!(req.header("x-trace"), Some("alice"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(matches!(parse(b"garbage\r\n\r\n"), Err(ReadError::Bad(_))));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(ReadError::TooLarge)
        ));
        assert!(matches!(parse(b""), Err(ReadError::Closed)));
    }
}
