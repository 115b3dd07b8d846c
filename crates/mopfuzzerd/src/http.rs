//! A deliberately small HTTP/1.1 server-side codec.
//!
//! The fleet API needs exactly what a scraper or a `curl` script sends:
//! one request per connection, a request line, a handful of headers, an
//! optional `Content-Length` body. The build is offline (no hyper, no
//! tokio), and the control plane is low-traffic by construction — one
//! request per campaign submission plus periodic metric scrapes — so a
//! blocking thread-per-connection codec over `std::net` is the whole
//! implementation. Responses always close the connection, which keeps
//! the state machine one-shot and lets clients rely on EOF.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Longest accepted head (request line + headers), and longest body.
/// Campaign specs are a few hundred bytes; both caps are generous.
const MAX_HEAD: usize = 64 * 1024;
const MAX_BODY: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Path without query string.
    pub path: String,
    pub body: String,
}

/// Reads one request from `stream`, answering `100 Continue` when the
/// client asks for it (curl does for larger bodies).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err("request head too large".to_string());
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-request".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() {
        return Err(format!("malformed request line {request_line:?}"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut content_length = 0usize;
    let mut expects_continue = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| format!("bad content-length {value:?}"))?;
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expects_continue = true;
        }
    }
    if content_length > MAX_BODY {
        return Err("request body too large".to_string());
    }
    if expects_continue {
        let _ = stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one response and leaves the connection for the caller to drop.
pub fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8]) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Keep the socket open until the server is done parsing.
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream);
        respond(&mut stream, 200, "text/plain", "ok");
        drop(stream);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_request_with_body() {
        let req = round_trip(
            b"POST /campaigns?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 12\r\n\r\n{\"rounds\":2}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.body, "{\"rounds\":2}");
    }

    #[test]
    fn parses_bodyless_get() {
        let req = round_trip(b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");
    }

    #[test]
    fn rejects_garbage() {
        assert!(round_trip(b"\r\n\r\n").is_err());
    }
}
