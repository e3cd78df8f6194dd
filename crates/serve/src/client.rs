//! A minimal blocking HTTP/1.1 client over `std::net` — just enough to
//! drive `disp-serve`: keep-alive connection reuse, fixed-length and
//! chunked response bodies, JSON helpers. Shared by the `disp-load`
//! harness, the integration tests and the CI smoke, so the server is
//! always exercised through the same wire code its load numbers are
//! measured with.

use disp_analysis::json::Json;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The (de-chunked) body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Body parsed as JSON.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(self.text().trim())
    }
}

/// A keep-alive client bound to one server address.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr` (`host:port`). Connects lazily.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Result<HttpResponse, String> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &Json) -> Result<HttpResponse, String> {
        self.request("POST", path, Some(body.to_string_compact().into_bytes()))
    }

    /// `DELETE path`.
    pub fn delete(&mut self, path: &str) -> Result<HttpResponse, String> {
        self.request("DELETE", path, None)
    }

    /// `POST path` with a `Transfer-Encoding: chunked` body — the upload
    /// path for cluster batch results, whose JSONL bodies are assembled
    /// incrementally. Same stale-connection retry policy as [`request`].
    ///
    /// [`request`]: Client::request
    pub fn post_chunked(&mut self, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
        let had_connection = self.stream.is_some();
        match self.try_request_inner("POST", path, body, true) {
            Ok(resp) => Ok(resp),
            Err((e, retry_safe)) if had_connection && retry_safe => {
                self.stream = None;
                self.try_request_inner("POST", path, body, true)
                    .map_err(|(e2, _)| format!("{e2} (after stale-connection retry: {e})"))
            }
            Err((e, _)) => Err(e),
        }
    }

    /// One request with a single reconnect retry: a server may legally
    /// close a kept-alive connection between requests (idle expiry, yield
    /// under load, drain), which surfaces as an error on the next
    /// write/read and is not a real failure.
    ///
    /// The retry — including for non-idempotent `POST`s — only happens
    /// when the first attempt was on a *reused* connection and failed
    /// before **any** response byte arrived: `disp-serve` answers every
    /// request it parses (even malformed ones get a 400), so
    /// zero-bytes-then-close means the request was never processed. A
    /// failure after response bytes is never retried: the server may have
    /// acted, so double-submitting would be unsound.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<Vec<u8>>,
    ) -> Result<HttpResponse, String> {
        let had_connection = self.stream.is_some();
        let body = body.as_deref().unwrap_or(&[]);
        match self.try_request_inner(method, path, body, false) {
            Ok(resp) => Ok(resp),
            Err((e, retry_safe)) if had_connection && retry_safe => {
                // Stale keep-alive connection: reconnect once.
                self.stream = None;
                self.try_request_inner(method, path, body, false)
                    .map_err(|(e2, _)| format!("{e2} (after stale-connection retry: {e})"))
            }
            Err((e, _)) => Err(e),
        }
    }

    /// The error side carries whether a retry is safe (no response bytes
    /// were received before the failure).
    fn try_request_inner(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        chunked: bool,
    ) -> Result<HttpResponse, (String, bool)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| (format!("connect {}: {e}", self.addr), false))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| (e.to_string(), false))?;
            stream
                .set_nodelay(true)
                .map_err(|e| (e.to_string(), false))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let head = if chunked {
            format!(
                "{method} {path} HTTP/1.1\r\nhost: {}\r\ntransfer-encoding: chunked\r\n\r\n",
                self.addr,
            )
        } else {
            format!(
                "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
                self.addr,
                body.len(),
            )
        };
        let mut got_response_bytes = false;
        let io = (|| -> std::io::Result<HttpResponse> {
            stream.write_all(head.as_bytes())?;
            if chunked {
                // 32 KiB chunks: big enough to amortize framing, small
                // enough that the server's incremental decoder is actually
                // exercised by real uploads.
                for piece in body.chunks(32 * 1024) {
                    write!(stream, "{:x}\r\n", piece.len())?;
                    stream.write_all(piece)?;
                    stream.write_all(b"\r\n")?;
                }
                stream.write_all(b"0\r\n\r\n")?;
            } else {
                stream.write_all(body)?;
            }
            stream.flush()?;
            read_response(stream, &mut got_response_bytes)
        })();
        match io {
            Ok(resp) => {
                if resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err((format!("{method} {path}: {e}"), !got_response_bytes))
            }
        }
    }
}

fn read_response(stream: &mut TcpStream, got_any: &mut bool) -> std::io::Result<HttpResponse> {
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let mut chunk = [0u8; 8192];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "EOF before response head",
                ))
            }
            Ok(n) => {
                *got_any = true;
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                ErrorKind::InvalidData,
                format!("bad status line '{status_line}'"),
            )
        })?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let mut rest = buf.split_off(head_end);
    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let body = if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        read_chunked(stream, &mut rest)?
    } else {
        let len: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        while rest.len() < len {
            let mut chunk = [0u8; 8192];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "EOF mid-body",
                    ))
                }
                Ok(n) => rest.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        rest.truncate(len);
        rest
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Decode a chunked body; `rest` holds bytes already read past the head.
fn read_chunked(stream: &mut TcpStream, rest: &mut Vec<u8>) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        // Read until we have a full size line.
        let line_end = loop {
            if let Some(i) = rest.windows(2).position(|w| w == b"\r\n") {
                break i;
            }
            read_more(stream, rest)?;
        };
        let bad_size = || std::io::Error::new(ErrorKind::InvalidData, "bad chunk size");
        let size_line = std::str::from_utf8(&rest[..line_end]).map_err(|_| bad_size())?;
        let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad_size())?;
        // The size comes off the wire: `size + 2` must not overflow.
        let framed = size.checked_add(2).ok_or_else(bad_size)?;
        rest.drain(..line_end + 2);
        while rest.len() < framed {
            read_more(stream, rest)?;
        }
        body.extend_from_slice(&rest[..size]);
        rest.drain(..framed); // chunk data + trailing CRLF
        if size == 0 {
            return Ok(body);
        }
    }
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut chunk = [0u8; 8192];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "EOF mid-chunked-body",
                ))
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_chunk_size_past_usize_is_an_error_not_a_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut head = [0u8; 1024];
            let _ = conn.read(&mut head).unwrap();
            conn.write_all(
                b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n\
                  ffffffffffffffff\r\nhello\r\n0\r\n\r\n",
            )
            .unwrap();
        });
        let err = Client::new(&addr).get("/").unwrap_err();
        assert!(err.contains("bad chunk size"), "{err}");
        server.join().unwrap();
    }
}
