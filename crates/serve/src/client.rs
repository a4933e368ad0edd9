//! The matching HTTP/1.1 client: `jinjing call`, the shard
//! coordinator, the integration tests and the `benchmark/` load
//! generator all speak to the daemon through this module, so the wire
//! framing assumptions live in exactly two places — here and in
//! [`crate::http`].
//!
//! Three entry points:
//! - [`call`] — one-shot: connect, send `Connection: close`, read to
//!   EOF. The historical path; still what `jinjing call` uses for a
//!   single request.
//! - [`Conn`] — a kept-alive connection: requests go out with
//!   `Connection: keep-alive`, responses are framed by
//!   `Content-Length`, and a connection the server dropped between
//!   requests is transparently re-dialed once. One `Conn` per backend
//!   is what lets the coordinator fan out N requests without N×M
//!   connect/teardown round-trips.
//! - [`call_stream`] — one-shot with a chunk callback: de-frames a
//!   `Transfer-Encoding: chunked` response incrementally, invoking the
//!   callback per chunk as it arrives (streamed partial results); the
//!   returned body is the *last* chunk — the canonical document.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response: status, headers (names lower-cased) and body.
#[derive(Debug)]
pub struct CallResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The raw body bytes.
    pub body: Vec<u8>,
}

impl CallResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == want)
            .map(|(_, v)| v.as_str())
    }

    /// The body as (lossy) text.
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Map this response onto the CLI exit-code table. The daemon stamps
    /// every application-level response with `X-Jinjing-Exit` (0 ok,
    /// 1 error, 3 check-inconsistent / watch-rejected, 4 lint gate);
    /// absent the header, any non-2xx status is a generic failure (1).
    pub fn exit_code(&self) -> i32 {
        if let Some(v) = self.header("x-jinjing-exit") {
            if let Ok(code) = v.parse::<i32>() {
                return code;
            }
        }
        if self.status >= 400 {
            1
        } else {
            0
        }
    }
}

/// Issue one request and read the full response (the server always
/// closes, so EOF delimits it). `timeout` bounds connect, each read and
/// each write individually.
pub fn call(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
    timeout: Duration,
) -> Result<CallResponse, String> {
    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;

    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("write {addr}: {e}"))?;

    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {addr}: {e}"))?;
    parse_response(&raw)
}

fn parse_head(head: &str) -> Result<(u16, Vec<(String, String)>), String> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad response header {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((status, headers))
}

fn parse_response(raw: &[u8]) -> Result<CallResponse, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "response has no header terminator".to_string())?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| "response head is not UTF-8".to_string())?;
    let (status, headers) = parse_head(head)?;
    let raw_body = &raw[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        crate::http::dechunk(raw_body)?
    } else {
        raw_body.to_vec()
    };
    Ok(CallResponse {
        status,
        headers,
        body,
    })
}

/// A kept-alive connection to one daemon: the coordinator's fan-out
/// primitive, and what `jinjing call --shards` reuses per backend.
///
/// The connection is dialed lazily on the first request and reused for
/// every subsequent one; responses are framed by `Content-Length`
/// (which the server always emits), so no EOF is needed to delimit
/// them. If the server answered `Connection: close` — or the socket
/// died between requests — the next request transparently re-dials
/// once. Errors on a *fresh* connection are returned to the caller: a
/// backend that is actually down surfaces as an error, never as a
/// silent retry loop.
#[derive(Debug)]
pub struct Conn {
    addr: std::net::SocketAddr,
    display: String,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl Conn {
    /// Prepare a connection to `addr` (`host:port`); dialing happens on
    /// the first request.
    pub fn new(addr: &str, timeout: Duration) -> Result<Conn, String> {
        let sock_addr: std::net::SocketAddr = addr
            .parse()
            .map_err(|e| format!("bad address {addr:?}: {e}"))?;
        Ok(Conn {
            addr: sock_addr,
            display: addr.to_string(),
            timeout,
            stream: None,
        })
    }

    /// The address this connection dials.
    pub fn addr(&self) -> &str {
        &self.display
    }

    fn dial(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(|e| format!("connect {}: {e}", self.display))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        Ok(stream)
    }

    /// Issue one request on the kept-alive connection and read its
    /// `Content-Length`-framed response. A send that fails on a *reused*
    /// stream (the server idled it out between requests) is retried once
    /// on a fresh connection; failures on a fresh connection are final.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<CallResponse, String> {
        let reused = self.stream.is_some();
        if self.stream.is_none() {
            self.stream = Some(self.dial()?);
        }
        match self.round_trip(method, path, headers, body) {
            Ok(resp) => Ok(resp),
            Err(e) if reused => {
                // The pooled stream was stale; reconnect once.
                self.stream = Some(self.dial()?);
                self.round_trip(method, path, headers, body)
                    .map_err(|e2| format!("{e2} (after stale-connection retry: {e})"))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<CallResponse, String> {
        // Take the stream out: any early return leaves `self.stream`
        // empty (don't reuse a connection in an unknown framing state);
        // only a fully-framed keep-alive response puts it back.
        let mut stream = self.stream.take().expect("dialed in call");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n",
            self.display,
            body.len()
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body))
            .and_then(|()| stream.flush())
            .map_err(|e| format!("write {}: {e}", self.display))?;

        // Read the head, then exactly Content-Length body bytes.
        let mut raw: Vec<u8> = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("read {}: {e}", self.display))?;
            if n == 0 {
                return Err(format!("read {}: connection closed mid-head", self.display));
            }
            raw.extend_from_slice(&chunk[..n]);
        };
        let head_text = std::str::from_utf8(&raw[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let (status, headers) = parse_head(head_text)?;
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| "keep-alive response without Content-Length".to_string())?;
        let mut body_bytes: Vec<u8> = raw[head_end + 4..].to_vec();
        while body_bytes.len() < content_length {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("read {}: {e}", self.display))?;
            if n == 0 {
                return Err(format!("read {}: connection closed mid-body", self.display));
            }
            body_bytes.extend_from_slice(&chunk[..n]);
        }
        if body_bytes.len() > content_length {
            return Err("more body bytes than Content-Length declared".to_string());
        }
        // Honor the server's disposition: `close` means don't reuse.
        let keep = headers
            .iter()
            .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("keep-alive"));
        if keep {
            self.stream = Some(stream);
        }
        Ok(CallResponse {
            status,
            headers,
            body: body_bytes,
        })
    }
}

/// Issue one request and de-frame a chunked response incrementally:
/// `on_chunk` fires per chunk as it arrives off the wire (the streaming
/// protocol sends newline-terminated JSON documents), and the returned
/// response carries the **last** chunk as its body — the canonical
/// document, byte-identical to the unstreamed response. A non-chunked
/// response degrades gracefully: one callback with the whole body.
pub fn call_stream(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
    timeout: Duration,
    on_chunk: &mut dyn FnMut(&[u8]),
) -> Result<CallResponse, String> {
    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("write {addr}: {e}"))?;

    // Read the head.
    let mut raw: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read {addr}: {e}"))?;
        if n == 0 {
            return Err(format!("read {addr}: connection closed mid-head"));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head_text = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| "response head is not UTF-8".to_string())?;
    let (status, resp_headers) = parse_head(head_text)?;
    let chunked = resp_headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut buf: Vec<u8> = raw[head_end + 4..].to_vec();
    if !chunked {
        // Plain response: read to EOF, one callback, done.
        stream
            .read_to_end(&mut buf)
            .map_err(|e| format!("read {addr}: {e}"))?;
        on_chunk(&buf);
        return Ok(CallResponse {
            status,
            headers: resp_headers,
            body: buf,
        });
    }
    // Incremental de-chunking: deliver each chunk as soon as its bytes
    // are complete; remember the last one as the canonical body.
    let mut last: Vec<u8> = Vec::new();
    loop {
        // Ensure a full size line.
        let line_end = loop {
            if let Some(pos) = buf.windows(2).position(|w| w == b"\r\n") {
                break pos;
            }
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("read {addr}: {e}"))?;
            if n == 0 {
                return Err(format!("read {addr}: stream ended mid-chunk-size"));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let size_line = std::str::from_utf8(&buf[..line_end])
            .map_err(|_| "chunk size line is not UTF-8".to_string())?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        buf.drain(..line_end + 2);
        if size == 0 {
            break;
        }
        while buf.len() < size + 2 {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("read {addr}: {e}"))?;
            if n == 0 {
                return Err(format!("read {addr}: stream ended mid-chunk"));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        if &buf[size..size + 2] != b"\r\n" {
            return Err("chunk not CRLF-terminated".to_string());
        }
        last = buf[..size].to_vec();
        on_chunk(&last);
        buf.drain(..size + 2);
    }
    Ok(CallResponse {
        status,
        headers: resp_headers,
        body: last,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\nX-Jinjing-Exit: 1\r\n\r\n{\"error\":\"queue full\",\"status\":429}\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.header("Retry-After"), Some("1"));
        assert!(r.body_text().contains("queue full"));
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn exit_code_prefers_the_header_then_the_status() {
        let with_header = parse_response(b"HTTP/1.1 200 OK\r\nx-jinjing-exit: 3\r\n\r\n").unwrap();
        assert_eq!(with_header.exit_code(), 3);
        let ok = parse_response(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
        assert_eq!(ok.exit_code(), 0);
        let err = parse_response(b"HTTP/1.1 503 Service Unavailable\r\n\r\n").unwrap();
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        assert!(parse_response(b"").is_err());
        assert!(parse_response(b"HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_response(b"junk with no terminator").is_err());
    }

    #[test]
    fn parse_response_dechunks_transfer_encoding() {
        let raw = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body_text(), "hello world");
    }

    #[test]
    fn conn_reuses_one_connection_across_requests() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // A tiny keep-alive server: one accepted connection, two
        // responses, then EOF.
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut served = 0u32;
            let mut buf = [0u8; 4096];
            let mut pending: Vec<u8> = Vec::new();
            while served < 2 {
                let n = s.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                pending.extend_from_slice(&buf[..n]);
                // Requests here are bodyless; one head per request.
                while pending.windows(4).any(|w| w == b"\r\n\r\n") {
                    let pos = pending.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
                    pending.drain(..pos + 4);
                    served += 1;
                    let body = format!("{{\"n\":{served}}}\n");
                    let head = format!(
                        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
                        body.len()
                    );
                    s.write_all(head.as_bytes()).unwrap();
                    s.write_all(body.as_bytes()).unwrap();
                }
            }
            served
        });
        let mut conn = Conn::new(&addr, Duration::from_secs(5)).unwrap();
        let r1 = conn.call("POST", "/v1/x", &[], b"").unwrap();
        assert_eq!(r1.body_text(), "{\"n\":1}\n");
        let r2 = conn.call("POST", "/v1/x", &[], b"").unwrap();
        assert_eq!(r2.body_text(), "{\"n\":2}\n");
        drop(conn);
        // Both requests were served on the single accepted connection.
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn conn_redials_once_when_the_server_closed_between_requests() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First connection: claim keep-alive, then close anyway.
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let mut pending: Vec<u8> = Vec::new();
                loop {
                    let n = s.read(&mut buf).unwrap();
                    if n == 0 {
                        break;
                    }
                    pending.extend_from_slice(&buf[..n]);
                    if pending.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                s.write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 3\r\nconnection: keep-alive\r\n\r\n{}\n",
                )
                .unwrap();
                // Dropping s closes the connection despite keep-alive.
            }
        });
        let mut conn = Conn::new(&addr, Duration::from_secs(5)).unwrap();
        assert_eq!(conn.call("POST", "/v1/x", &[], b"").unwrap().status, 200);
        // The pooled stream is now dead; the retry path re-dials.
        assert_eq!(conn.call("POST", "/v1/x", &[], b"").unwrap().status, 200);
        server.join().unwrap();
    }

    #[test]
    fn conn_surfaces_a_down_backend_as_an_error() {
        // Nothing listens on this address (bound then dropped).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut conn = Conn::new(&addr, Duration::from_millis(500)).unwrap();
        let err = conn.call("POST", "/v1/x", &[], b"").unwrap_err();
        assert!(err.contains("connect"), "{err}");
        assert!(Conn::new("not-an-addr", Duration::from_secs(1)).is_err());
    }
}
