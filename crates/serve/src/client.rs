//! A minimal blocking HTTP/1.1 client over `std::net` — just enough to
//! drive `disp-serve`: keep-alive connection reuse, JSON helpers and
//! chunked uploads. The wire format is [`crate::http`]'s, the same codec
//! the server reads requests with (heads, body framing, the chunked
//! decoder, the chunk writer); this module adds only what is specific to
//! a client: the status line, keep-alive and the stale-connection retry.
//! Shared by the `disp-load` harness, the integration tests and the CI
//! smoke, so the server is always exercised through the same wire code
//! its load numbers are measured with.

use crate::http::{self, finish_chunks, write_chunk, Message, MessageReader};
use disp_analysis::json::Json;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on a response body. Far above the server's request bound:
/// it must admit the largest body the server sends, the JSONL results or
/// event stream of a 100,000-trial job (a record line is ~400 bytes, so
/// tens of MB).
const MAX_RESPONSE_BODY_BYTES: usize = 256 * 1024 * 1024;

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
    /// Read the status line of `message`.
    pub fn from_message(message: Message) -> Result<HttpResponse, String> {
        let status = message
            .start_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line '{}'", message.start_line))?;
        Ok(HttpResponse {
            status,
            headers: message.headers,
            body: message.body,
        })
    }

    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        http::header(&self.headers, name)
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

    /// One request with a `Content-Length` body (empty for `None`).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<Vec<u8>>,
    ) -> Result<HttpResponse, String> {
        self.exchange(method, path, body.as_deref().unwrap_or_default(), false)
    }

    /// [`request`] with a `Transfer-Encoding: chunked` body: the upload
    /// path for cluster batch results.
    ///
    /// [`request`]: Client::request
    pub fn post_chunked(&mut self, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
        self.exchange("POST", path, body, true)
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
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        chunked: bool,
    ) -> Result<HttpResponse, String> {
        let had_connection = self.stream.is_some();
        match self.attempt(method, path, body, chunked) {
            Ok(resp) => Ok(resp),
            Err((e, retry_safe)) if had_connection && retry_safe => {
                // Stale keep-alive connection: reconnect once.
                self.stream = None;
                self.attempt(method, path, body, chunked)
                    .map_err(|(e2, _)| format!("{e2} (after stale-connection retry: {e})"))
            }
            Err((e, _)) => Err(e),
        }
    }

    /// The error side carries whether a retry is safe (no response bytes
    /// were received before the failure).
    fn attempt(
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
        let framing = if chunked {
            "transfer-encoding: chunked".to_string()
        } else {
            format!("content-length: {}", body.len())
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\n{framing}\r\n\r\n",
            self.addr
        );
        let mut got_response_bytes = false;
        let io = (|| -> std::io::Result<HttpResponse> {
            stream.write_all(head.as_bytes())?;
            if chunked {
                // 32 KiB chunks: big enough to amortize framing, small
                // enough that the server's incremental decoder is actually
                // exercised by real uploads.
                for piece in body.chunks(32 * 1024) {
                    write_chunk(stream, piece)?;
                }
                finish_chunks(stream)?;
            } else {
                stream.write_all(body)?;
                stream.flush()?;
            }
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

/// Read one response through the shared codec. `got_any` records whether
/// any response byte arrived (the retry rule needs to know). Malformed or
/// oversized responses are `InvalidData` errors.
fn read_response(stream: &mut impl Read, got_any: &mut bool) -> std::io::Result<HttpResponse> {
    let invalid = |e: String| std::io::Error::new(ErrorKind::InvalidData, e);
    let mut reader = MessageReader::new(MAX_RESPONSE_BODY_BYTES);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        if let Some((message, _)) = reader.poll(&mut buf).map_err(invalid)? {
            return HttpResponse::from_message(message).map_err(invalid);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "EOF before the response was complete",
                ))
            }
            Ok(n) => {
                *got_any = true;
                buf.extend_from_slice(&chunk[..n]);
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

    #[test]
    fn ambiguous_framing_and_a_missing_chunk_crlf_are_invalid_data() {
        let both = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\ntransfer-encoding: chunked\r\n\r\n\
                     5\r\nhello\r\n0\r\n\r\n";
        let no_crlf = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n\
                        5\r\nhelloXX0\r\n\r\n";
        for raw in [&both[..], &no_crlf[..]] {
            let err = read_response(&mut &raw[..], &mut false).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        }
        // The same bytes, well framed, are a response.
        let good = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        let resp = read_response(&mut &good[..], &mut false).unwrap();
        assert_eq!((resp.status, resp.text().as_str()), (200, "hello"));
    }
}
