//! Hand-rolled HTTP/1.1 plumbing over `std::net::TcpStream`.
//!
//! The build environment has no crates.io access, so this module supplies
//! the minimal-but-correct slice of HTTP the explanation server needs:
//! request parsing with persistent (keep-alive) connections, a
//! `Content-Length`-framed body with a configurable size cap, response
//! writing, and a non-blocking peer-disconnect probe used to cancel
//! abandoned requests. Chunked transfer encoding is deliberately not
//! supported (requests using it get a structured 400).

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Cap on the request head (request line + headers). Requests whose head
/// exceeds this are malformed or hostile; either way the connection is
/// answered with 400 and closed.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (no query-string splitting — the API does
    /// not use query parameters).
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// The client asked for this to be the connection's last exchange
    /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`Conn::read_request`] returned without a request.
#[derive(Debug)]
pub enum RecvError {
    /// Clean EOF on a request boundary: the client is done with the
    /// connection.
    Closed,
    /// The read timed out before a full request arrived. The buffered
    /// partial request (if any) is kept; the caller decides whether to
    /// keep waiting or close an idle connection.
    Idle,
    /// Malformed request: answer 400 with the message and close.
    Bad(String),
    /// Declared body exceeds the configured cap: answer 413 and close.
    TooLarge {
        /// The configured body cap in bytes.
        limit: usize,
    },
    /// Socket failure; the connection is unusable.
    Io(io::Error),
}

/// One server-side connection: the stream plus a carry buffer for bytes
/// that belong to the next pipelined request.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

impl Conn {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
        }
    }

    /// The underlying stream (for timeouts and response writing).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Whether bytes of a not-yet-complete request are buffered — the
    /// connection is mid-request, not idle.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Bytes received but not yet consumed by [`Conn::read_request`].
    pub(crate) fn buffered(&self) -> &[u8] {
        &self.buf
    }

    /// Reads one more chunk off the socket into the carry buffer.
    /// `Ok(0)` is EOF; timeouts — and, on a non-blocking stream, an empty
    /// socket — surface as [`RecvError::Idle`].
    pub(crate) fn fill(&mut self) -> Result<usize, RecvError> {
        let mut tmp = [0u8; 4096];
        match self.stream.read(&mut tmp) {
            Ok(n) => {
                self.buf.extend_from_slice(&tmp[..n]);
                Ok(n)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(RecvError::Idle)
            }
            Err(e) => Err(RecvError::Io(e)),
        }
    }

    /// Reads (or finishes reading) one request. Respects the stream's
    /// configured read timeout: a timeout mid-request keeps the partial
    /// bytes buffered and returns [`RecvError::Idle`], so the caller can
    /// poll a shutdown flag between attempts. A malformed or oversized
    /// request also leaves the buffer as it was, so another reader of the
    /// same connection sees the same error.
    pub fn read_request(&mut self, max_body: usize) -> Result<Request, RecvError> {
        loop {
            if let Some(head_end) = find_crlf2(&self.buf) {
                return self.parse_at(head_end, max_body);
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(RecvError::Bad(format!(
                    "request head exceeds {MAX_HEAD_BYTES} bytes"
                )));
            }
            match self.fill() {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Err(RecvError::Closed)
                    } else {
                        Err(RecvError::Bad("connection closed mid-request".into()))
                    };
                }
                Ok(_) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn parse_at(&mut self, head_end: usize, max_body: usize) -> Result<Request, RecvError> {
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split_ascii_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
                (m.to_ascii_uppercase(), p.to_string(), v.to_string())
            }
            _ => {
                return Err(RecvError::Bad(format!(
                    "malformed request line {request_line:?}"
                )))
            }
        };
        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(RecvError::Bad(format!("malformed header line {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        if header("transfer-encoding").is_some() {
            return Err(RecvError::Bad(
                "chunked transfer encoding not supported; \
                 send a Content-Length-framed body"
                    .into(),
            ));
        }
        // Exactly one Content-Length (or none): duplicates — even
        // agreeing ones — are rejected like Transfer-Encoding above,
        // because a front proxy honouring a different copy than we do
        // turns disagreement into request smuggling.
        let mut content_lengths = headers.iter().filter(|(k, _)| k == "content-length");
        let (first_cl, second_cl) = (content_lengths.next(), content_lengths.next());
        if second_cl.is_some() {
            return Err(RecvError::Bad("multiple Content-Length headers".into()));
        }
        let body_len = match first_cl {
            None => 0,
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| RecvError::Bad(format!("invalid Content-Length {v:?}")))?,
        };
        if body_len > max_body {
            // Drop the connection state: the client would keep streaming a
            // body nobody reads, so the caller must close after answering.
            return Err(RecvError::TooLarge { limit: max_body });
        }
        let total = head_end + 4 + body_len;
        while self.buf.len() < total {
            match self.fill() {
                Ok(0) => return Err(RecvError::Bad("connection closed mid-body".into())),
                Ok(_) => {}
                Err(e) => return Err(e),
            }
        }
        let connection = header("connection").unwrap_or("").to_ascii_lowercase();
        let close = connection.split(',').any(|t| t.trim() == "close")
            || (version == "HTTP/1.0" && !connection.contains("keep-alive"));
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Request {
            method,
            path,
            headers,
            body,
            close,
        })
    }

    /// Non-blocking probe for a client disconnect while a response is
    /// being computed. Bytes the client sent ahead (pipelining) are kept
    /// for the next [`Conn::read_request`]; `true` means the peer closed
    /// its end and the in-flight work should be cancelled.
    pub fn peer_closed(&mut self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut tmp = [0u8; 1024];
        let closed = match self.stream.read(&mut tmp) {
            Ok(0) => true,
            Ok(n) => {
                self.buf.extend_from_slice(&tmp[..n]);
                false
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
            Err(_) => true,
        };
        let _ = self.stream.set_nonblocking(false);
        closed
    }
}

/// Standard reason phrase of the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Writes one JSON response. `close` adds `Connection: close` (the caller
/// must then actually close the connection).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    let mut msg = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        status,
        status_reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        msg.push_str(name);
        msg.push_str(": ");
        msg.push_str(value);
        msg.push_str("\r\n");
    }
    if close {
        msg.push_str("connection: close\r\n");
    }
    msg.push_str("\r\n");
    msg.push_str(body);
    stream.write_all(msg.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pipe() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn parses_two_pipelined_requests() {
        let (mut client, server) = pipe();
        client
            .write_all(
                b"POST /v1/explain HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                  GET /healthz HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let mut conn = Conn::new(server);
        let first = conn.read_request(1024).unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/v1/explain");
        assert_eq!(first.body, b"hi");
        assert!(!first.close);
        let second = conn.read_request(1024).unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(second.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body_and_garbage() {
        let (mut client, server) = pipe();
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\n")
            .unwrap();
        let mut conn = Conn::new(server);
        assert!(matches!(
            conn.read_request(10),
            Err(RecvError::TooLarge { limit: 10 })
        ));

        let (mut client, server) = pipe();
        client.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut conn = Conn::new(server);
        assert!(matches!(conn.read_request(10), Err(RecvError::Bad(_))));
    }

    /// Ambiguous framing is a request-smuggling vector behind proxies:
    /// duplicate Content-Length headers must be rejected outright.
    #[test]
    fn rejects_duplicate_content_length() {
        let (mut client, server) = pipe();
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi")
            .unwrap();
        let mut conn = Conn::new(server);
        assert!(matches!(conn.read_request(10), Err(RecvError::Bad(_))));
    }

    #[test]
    fn clean_eof_is_closed_midway_is_bad() {
        let (client, server) = pipe();
        drop(client);
        let mut conn = Conn::new(server);
        assert!(matches!(conn.read_request(10), Err(RecvError::Closed)));

        let (mut client, server) = pipe();
        client.write_all(b"GET /healthz HT").unwrap();
        drop(client);
        let mut conn = Conn::new(server);
        assert!(matches!(conn.read_request(10), Err(RecvError::Bad(_))));
    }

    #[test]
    fn connection_close_header_detected() {
        let (mut client, server) = pipe();
        client
            .write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let req = Conn::new(server).read_request(10).unwrap();
        assert!(req.close);
    }

    #[test]
    fn peer_closed_probe() {
        let (client, server) = pipe();
        let mut conn = Conn::new(server);
        assert!(!conn.peer_closed(), "live peer");
        drop(client);
        assert!(conn.peer_closed(), "dropped peer");
    }
}
