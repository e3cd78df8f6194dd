//! Hand-rolled HTTP/1.1: the one wire codec behind both directions of
//! `disp-serve` — the server reading requests and writing responses, and
//! [`crate::client`] writing requests and reading responses.
//!
//! This container builds offline, so — exactly like `disp-rng` replaced
//! `rand` and `disp_analysis::json` replaced `serde_json` — this module
//! carries the small HTTP/1.1 subset the campaign service actually needs
//! instead of pulling `hyper`:
//!
//! * [`MessageReader`] reads one message, request or response, off a
//!   buffer that grows between reads: one head-end search, one header-line
//!   parser, one body-framing rule (`Content-Length` or
//!   `Transfer-Encoding: chunked`; both at once, or any other coding, is an
//!   error) and one chunked decoder that resumes where the last read
//!   stopped. The caller bounds the body: [`MAX_BODY_BYTES`] for requests,
//!   a far larger bound for the client's responses;
//! * [`write_chunk`] + [`finish_chunks`] are the one chunk writer, for
//!   streamed responses and the cluster workers' batch uploads alike;
//! * [`read_request`] drives persistent connections (HTTP/1.1 keep-alive
//!   semantics, honoring `Connection: close`), with pipelined requests
//!   handled naturally by the carry-over buffer;
//! * responses are fixed-length or `Transfer-Encoding: chunked` (the JSONL
//!   and event streams);
//! * hard limits on head and body size so a confused peer cannot make
//!   either side buffer unboundedly, and size arithmetic on wire values
//!   that cannot overflow.
//!
//! Reads run under a short socket timeout and poll a shutdown latch, which
//! is what makes graceful drain possible: an idle keep-alive connection
//! notices shutdown within one tick instead of holding a worker forever.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Upper bound on a message head (start line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Upper bound on a chunk-size line (the size plus any extensions).
const MAX_CHUNK_LINE: usize = 1024;
/// Socket read timeout; also the shutdown-poll tick for idle connections.
pub const READ_TICK: Duration = Duration::from_millis(100);
/// Idle keep-alive ticks before the server closes the connection (~30 s).
const MAX_IDLE_TICKS: u32 = 300;
/// Wall-clock deadline for completing a request (first byte to last).
/// Deliberately wall-clock rather than timeout-tick based: a sender
/// dripping one byte per 50 ms never lets a read time out, yet must not
/// hold a worker past this budget either (the slow-loris shape).
const MAX_REQUEST_WALL: Duration = Duration::from_secs(10);
/// Ticks a connection that has not yet sent its first request may hold a
/// worker while other accepted connections are waiting for one (~1 s).
const PRESSURE_FIRST_REQUEST_TICKS: u32 = 10;

/// First header with the given (lowercase) name.
pub(crate) fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// One HTTP/1.1 message as read off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The request line or the status line.
    pub start_line: String,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The decoded body.
    pub body: Vec<u8>,
}

/// Reads one message from the front of a buffer that the caller appends
/// to between calls. The head is parsed once, and a chunked body resumes
/// where the last call stopped: complete chunks move into the decoded body
/// and leave the buffer, so each byte is decoded once however the reads
/// fall, and the buffer holds at most the head and one partial chunk.
#[derive(Debug)]
pub struct MessageReader {
    max_body: usize,
    /// The parsed head (body still empty) and how its body is delimited.
    head: Option<(Message, Body)>,
}

impl MessageReader {
    /// A reader that refuses bodies of more than `max_body` decoded bytes.
    pub fn new(max_body: usize) -> MessageReader {
        MessageReader {
            max_body,
            head: None,
        }
    }

    /// `Ok(Some((message, len)))` once the whole message has been read,
    /// where `len` is how many bytes at the front of `buf` it still spans
    /// (bytes after them belong to the next message); `Ok(None)` while
    /// more bytes are needed; `Err` on malformed or oversized input.
    pub fn poll(&mut self, buf: &mut Vec<u8>) -> Result<Option<(Message, usize)>, String> {
        let (message, body) = match &mut self.head {
            Some(head) => head,
            None => {
                let end = find_head_end(buf);
                if end.unwrap_or(buf.len()) > MAX_HEAD_BYTES {
                    return Err("head too large".into());
                }
                let Some(end) = end else {
                    return Ok(None);
                };
                let text = std::str::from_utf8(&buf[..end - 4])
                    .map_err(|_| "head is not UTF-8".to_string())?;
                let message = parse_head(text)?;
                let body = Body::framing(&message.headers, end, self.max_body)?;
                self.head.insert((message, body))
            }
        };
        let Some((bytes, len)) = body.poll(buf)? else {
            return Ok(None);
        };
        message.body = bytes;
        Ok(self.head.take().map(|(message, _)| (message, len)))
    }
}

/// Index just past the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// The start line, then one `name: value` header per line (names
/// lowercased, both sides trimmed). `head` stops before the blank line.
fn parse_head(head: &str) -> Result<Message, String> {
    let mut lines = head.split("\r\n");
    let start_line = lines.next().unwrap_or_default().to_string();
    let headers = lines
        .map(|line| {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed header line '{line}'"))?;
            Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect::<Result<_, String>>()?;
    Ok(Message {
        start_line,
        headers,
        body: Vec::new(),
    })
}

/// How a message's body is delimited, and how far it has been read.
#[derive(Debug)]
enum Body {
    /// `Content-Length`: `len` bytes from `start`.
    Length { start: usize, len: usize },
    /// `Transfer-Encoding: chunked`.
    Chunked(ChunkedDecoder),
}

impl Body {
    /// The one body-framing rule: `Transfer-Encoding: chunked`, else
    /// `Content-Length` (absent = empty). Both at once, or either twice,
    /// is a smuggling-shaped ambiguity and any other coding is
    /// unsupported; all are refused rather than guessed at.
    fn framing(headers: &[(String, String)], start: usize, max: usize) -> Result<Body, String> {
        for name in ["transfer-encoding", "content-length"] {
            if headers.iter().filter(|(k, _)| k == name).count() > 1 {
                return Err(format!("more than one {name} header"));
            }
        }
        match (
            header(headers, "transfer-encoding"),
            header(headers, "content-length"),
        ) {
            (Some(_), Some(_)) => Err("both content-length and transfer-encoding".into()),
            (Some(te), None) if te.eq_ignore_ascii_case("chunked") => {
                Ok(Body::Chunked(ChunkedDecoder {
                    start,
                    max,
                    data: Vec::new(),
                }))
            }
            (Some(te), None) => Err(format!("unsupported transfer-encoding '{te}'")),
            (None, length) => {
                let len = match length {
                    Some(v) => v
                        .parse::<usize>()
                        .map_err(|_| format!("bad content-length '{v}'"))?,
                    None => 0,
                };
                if len > max {
                    return Err("body too large".into());
                }
                Ok(Body::Length { start, len })
            }
        }
    }

    /// `Ok(Some((body, end)))` once the whole body has been read; `end`
    /// indexes just past what is left of it in `buf`.
    fn poll(&mut self, buf: &mut Vec<u8>) -> Result<Option<(Vec<u8>, usize)>, String> {
        Ok(match self {
            // `start` is within the head bound and `len` within the body
            // bound, so the sum cannot overflow.
            Body::Length { start, len } => buf
                .get(*start..*start + *len)
                .map(|body| (body.to_vec(), *start + *len)),
            Body::Chunked(chunked) => chunked
                .poll(buf)?
                .then(|| (std::mem::take(&mut chunked.data), chunked.start)),
        })
    }
}

/// The chunked-body decoder. It keeps its place between calls: the chunks
/// already read are in `data` and gone from the buffer, so the next
/// chunk-size line always starts at `start`.
#[derive(Debug)]
struct ChunkedDecoder {
    /// Where the body starts in the buffer (just past the head).
    start: usize,
    /// Bound on the decoded bytes.
    max: usize,
    /// The chunks decoded so far.
    data: Vec<u8>,
}

impl ChunkedDecoder {
    /// Move every complete chunk at `buf[start..]` into `data` and out of
    /// `buf`. `Ok(true)` once the last chunk and its closing CRLF have
    /// been read too. Chunk extensions after `;` are ignored; trailers are
    /// not supported.
    fn poll(&mut self, buf: &mut Vec<u8>) -> Result<bool, String> {
        let mut pos = self.start;
        let done = loop {
            let rest = &buf[pos..];
            let crlf = rest
                .windows(2)
                .take(MAX_CHUNK_LINE)
                .position(|w| w == b"\r\n");
            let Some(line_len) = crlf else {
                if rest.len() > MAX_CHUNK_LINE {
                    return Err("malformed chunk size line".into());
                }
                break false;
            };
            let size = chunk_size(&rest[..line_len])?;
            // A size off the wire can be anything up to `usize::MAX`; it is
            // bounded here, before any offset arithmetic uses it.
            if size > self.max - self.data.len() {
                return Err(format!(
                    "bad chunk size {size:#x}: past the {}-byte body bound",
                    self.max
                ));
            }
            let data_at = line_len + 2;
            if size == 0 {
                // The last chunk: a bare CRLF ends the body.
                match rest.get(data_at..data_at + 2) {
                    None => break false,
                    Some(b"\r\n") => {
                        pos += data_at + 2;
                        break true;
                    }
                    Some(_) => return Err("trailers are not supported".into()),
                }
            }
            let Some(chunk) = rest.get(data_at..data_at + size + 2) else {
                break false;
            };
            let (data, crlf) = chunk.split_at(size);
            if crlf != b"\r\n" {
                return Err("chunk data not CRLF-terminated".into());
            }
            self.data.extend_from_slice(data);
            pos += data_at + size + 2;
        };
        buf.drain(self.start..pos);
        Ok(done)
    }
}

/// The size on a chunk-size line: hex digits only (not signed, not
/// empty), then optional `;extensions`, which are ignored.
fn chunk_size(line: &[u8]) -> Result<usize, String> {
    let line = std::str::from_utf8(line).map_err(|_| "chunk size line is not UTF-8".to_string())?;
    let digits = line.split(';').next().unwrap_or_default().trim();
    usize::from_str_radix(digits, 16)
        .ok()
        .filter(|_| digits.bytes().all(|b| b.is_ascii_hexdigit()))
        .ok_or_else(|| format!("bad chunk size '{digits}'"))
}

/// Write one non-empty chunk: the one chunk writer, for streamed responses
/// and chunked uploads alike.
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(()); // an empty chunk would terminate the stream
    }
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")
}

/// Terminate a chunked body.
pub fn finish_chunks(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path without the query string (e.g. `/runs/r1/results`).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The decoded body.
    pub body: Vec<u8>,
}

impl Request {
    /// Read the request line of `message`: method, target and an
    /// `HTTP/1.x` version.
    pub fn from_message(message: Message) -> Result<Request, String> {
        let mut parts = message.start_line.split(' ');
        let method = parts.next().ok_or("missing method")?.to_string();
        let target = parts.next().ok_or("missing request target")?;
        let version = parts.next().ok_or("missing HTTP version")?;
        if !version.starts_with("HTTP/1.") {
            return Err(format!("unsupported protocol '{version}'"));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (target.to_string(), Vec::new()),
        };
        Ok(Request {
            method,
            path,
            query,
            headers: message.headers,
            body: message.body,
        })
    }

    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn wants_keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Read one request from `stream`, using `buf` as the connection's
/// carry-over buffer (bytes of a pipelined next request stay in it between
/// calls).
///
/// `waiting` is the number of accepted connections no worker has picked up
/// yet. When it is nonzero, a request-less connection returns `Ok(None)`
/// so its worker can serve the queue instead — immediately if `yield_idle`
/// is set (the caller has already served a request on this connection; the
/// client treats the close as ordinary keep-alive expiry and reconnects),
/// and after a short first-request grace (~1 s) otherwise, so a freshly
/// accepted connection that never speaks cannot pin a worker while honest
/// clients — who send their request within the round trip — queue behind
/// it. Without these yields, `http_threads` silent connections would hold
/// every worker for the full idle budget.
///
/// Returns `Ok(None)` on clean EOF / idle shutdown / idle yield (close the
/// connection without a response), and `Err(message)` on malformed input
/// (the caller should answer 400 and close).
pub fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
    waiting: &AtomicUsize,
    yield_idle: bool,
) -> Result<Option<Request>, String> {
    let mut reader = MessageReader::new(MAX_BODY_BYTES);
    let mut idle_ticks = 0u32;
    // Set when the first byte of a request arrives; the whole request must
    // complete within MAX_REQUEST_WALL of it.
    let mut request_started: Option<std::time::Instant> = None;
    let mut chunk = [0u8; 8192];
    loop {
        if let Some((message, len)) = reader.poll(buf)? {
            buf.drain(..len);
            return Request::from_message(message).map(Some);
        }
        // The wall-clock deadline applies whether the sender is stalling
        // (timeouts below) or dripping bytes fast enough to dodge them.
        if !buf.is_empty() {
            let started = *request_started.get_or_insert_with(std::time::Instant::now);
            if started.elapsed() > MAX_REQUEST_WALL {
                return Err("timed out mid-request".into());
            }
        }
        // Need more bytes.
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err("connection closed mid-request".into())
                };
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                // Only the idle budget resets on progress; the wall-clock
                // request deadline never does.
                idle_ticks = 0;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if buf.is_empty() {
                    // Request-less: this is where graceful drain and the
                    // yield-to-the-queue policy take effect.
                    if shutdown.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                    idle_ticks += 1;
                    if waiting.load(Ordering::SeqCst) > 0
                        && (yield_idle || idle_ticks > PRESSURE_FIRST_REQUEST_TICKS)
                    {
                        return Ok(None);
                    }
                    if idle_ticks > MAX_IDLE_TICKS {
                        return Ok(None);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// Write a complete fixed-length response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Begin a chunked response (the JSONL streaming path). Follow with any
/// number of [`write_chunk`] calls and one [`finish_chunks`].
pub fn write_chunked_head(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read one request from `raw` through the shared reader.
    fn request(raw: &[u8]) -> Result<Option<Request>, String> {
        match MessageReader::new(MAX_BODY_BYTES).poll(&mut raw.to_vec())? {
            Some((message, _)) => Request::from_message(message).map(Some),
            None => Ok(None),
        }
    }

    /// Decode `body` as a chunked body in one call.
    fn chunked(body: &[u8]) -> Result<Option<Vec<u8>>, String> {
        let head = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        let mut raw = [&head[..], body].concat();
        Ok(MessageReader::new(MAX_BODY_BYTES)
            .poll(&mut raw)?
            .map(|(message, _)| message.body))
    }

    #[test]
    fn parses_a_head_with_query_and_headers() {
        let raw =
            b"POST /runs?format=summary&x HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        let req = request(&raw[..]).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/runs");
        assert_eq!(req.query_param("format"), Some("summary"));
        assert_eq!(req.query_param("x"), Some(""));
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"hello");
        assert!(req.wants_keep_alive());
        // Four of the five body bytes: the request is not complete yet.
        assert!(request(&raw[..raw.len() - 1]).unwrap().is_none());
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let head = b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n";
        let req = request(&head[..]).unwrap().unwrap();
        assert!(!req.wants_keep_alive());
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(request(b"GET\r\n\r\n").is_err());
        assert!(request(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(request(b"GET / HTTP/1.1\r\nbroken line\r\n\r\n").is_err());
        assert!(request(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        assert!(request(b"GET / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n").is_err());
        let smuggle = b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n";
        assert!(request(&smuggle[..]).is_err());
        let huge = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(request(huge.as_bytes()).is_err());
        assert!(request(&[b'a'; MAX_HEAD_BYTES + 1]).is_err());
    }

    #[test]
    fn chunked_request_heads_are_accepted() {
        let head = b"POST /internal/complete HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n";
        assert!(request(&head[..]).unwrap().is_none(), "waits for the body");
        let raw = [&head[..], b"0\r\n\r\n"].concat();
        assert_eq!(request(&raw).unwrap().unwrap().body, b"");
    }

    #[test]
    fn chunked_bodies_decode_incrementally() {
        let head = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        let body = b"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n";
        // "NEXT" is the start of a pipelined next request.
        let raw = [&head[..], body, b"NEXT"].concat();
        // One reader fed a byte at a time: nothing completes early, decoded
        // chunks leave the buffer, and the last byte completes the body.
        let mut reader = MessageReader::new(MAX_BODY_BYTES);
        let mut buf = Vec::new();
        let last = head.len() + body.len() - 1;
        for &byte in &raw[..last] {
            buf.push(byte);
            assert_eq!(reader.poll(&mut buf).unwrap(), None, "{buf:?}");
            // The head and at most the 16 first bytes of "6;ext=1\r\n world\r\n".
            assert!(buf.len() <= head.len() + 16, "{buf:?}");
        }
        buf.extend_from_slice(&raw[last..]);
        let (message, len) = reader.poll(&mut buf).unwrap().unwrap();
        assert_eq!(message.body, b"hello world");
        assert_eq!(&buf[len..], b"NEXT");
    }

    #[test]
    fn chunked_bodies_reject_malformed_streams() {
        assert!(chunked(b"zz\r\nhello\r\n").is_err());
        assert!(chunked(b"5\r\nhelloXX").is_err());
        assert!(chunked(b"0\r\nx-trailer: 1\r\n\r\n").is_err());
        assert!(chunked(b"-5\r\nhello\r\n").is_err());
        assert!(chunked(b"+5\r\nhello\r\n").is_err());
        assert!(chunked(b"\r\nhello\r\n").is_err());
        let oversized = format!("{:x}\r\n", MAX_BODY_BYTES + 1);
        assert!(chunked(oversized.as_bytes()).is_err());
        // The second chunk's size would overflow the running total.
        assert!(chunked(b"1\r\nA\r\nffffffffffffffff\r\nBBBB").is_err());
        assert!(chunked(&[b'1'; MAX_CHUNK_LINE + 1]).is_err());
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn reasons_cover_the_emitted_codes() {
        for code in [200u16, 201, 400, 404, 405, 409, 500] {
            assert!(!reason(code).is_empty(), "{code}");
        }
    }
}
