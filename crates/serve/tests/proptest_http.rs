//! Seeded-loop property tests (the workspace's proptest substitute) for
//! the one HTTP/1.1 codec in `disp_serve::http`, which reads the server's
//! requests and the client's responses alike.
//!
//! Messages are request or response heads with random headers, framed by
//! `Content-Length` or by the shared chunk writer (plus hand-framed chunk
//! streams with extensions), and every one is read as two reads cut at
//! every split point. Broken framing — chunk sizes near `usize::MAX`,
//! signed, empty or non-hex sizes, missing CRLFs, trailers, ambiguous or
//! unknown body framing — and random byte soup go through the same path.
//! The invariant: nothing panics, malformed input is a typed error, and
//! valid input decodes to the original bytes for every split.

use disp_rng::StdRng;
use disp_serve::http::{
    finish_chunks, write_chunk, Message, MessageReader, Request, MAX_BODY_BYTES,
};
use disp_serve::HttpResponse;

/// Read `raw` with one reader as two reads would deliver it: the bytes
/// before `cut`, then the rest. A message comes back with the bytes left
/// in the buffer after it.
fn read_split(raw: &[u8], cut: usize) -> Result<Option<(Message, Vec<u8>)>, String> {
    let mut reader = MessageReader::new(MAX_BODY_BYTES);
    let mut buf = raw[..cut].to_vec();
    let mut done = reader.poll(&mut buf)?;
    if done.is_none() {
        buf.extend_from_slice(&raw[cut..]);
        done = reader.poll(&mut buf)?;
    }
    Ok(done.map(|(message, len)| (message, buf.split_off(len))))
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

/// A random start line: a request line or a status line.
fn start_line(rng: &mut StdRng, request: bool) -> String {
    if request {
        let method = pick(rng, &["GET", "POST", "DELETE", "PUT"]);
        let target = pick(
            rng,
            &["/runs", "/runs/r1/results?format=summary", "/trace?a=1&b"],
        );
        let version = pick(rng, &["HTTP/1.1", "HTTP/1.0"]);
        format!("{method} {target} {version}")
    } else {
        let status = pick(
            rng,
            &["200 OK", "201 Created", "400 Bad Request", "404 Not Found"],
        );
        format!("HTTP/1.1 {status}")
    }
}

/// Random headers that say nothing about framing, as sent (mixed-case
/// names) and as read back (lowercased names).
fn headers(rng: &mut StdRng) -> (String, Vec<(String, String)>) {
    let mut wire = String::new();
    let mut read = Vec::new();
    for _ in 0..rng.random_range(0..5usize) {
        let name = pick(rng, &["Host", "X-Trace", "accept", "Connection", "X-A-B"]);
        let value = pick(rng, &["h:8077", "keep-alive", "a b", "", "x;y=z", "close"]);
        wire.push_str(&format!(
            "{name}:{}{value}\r\n",
            pick(rng, &["", " ", "  "])
        ));
        read.push((name.to_ascii_lowercase(), value.to_string()));
    }
    (wire, read)
}

/// Random body bytes, CR and LF included.
fn body(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.random_range(0..120usize);
    (0..len)
        .map(|_| pick(rng, &["a", "\r", "\n", "0", ";", "\u{7f}"]).as_bytes()[0])
        .collect()
}

/// `body` as a chunked stream from the shared chunk writer, in random
/// piece sizes.
fn chunked(rng: &mut StdRng, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (piece, tail) = rest.split_at(rng.random_range(1..rest.len() + 1));
        write_chunk(&mut out, piece).unwrap();
        rest = tail;
    }
    finish_chunks(&mut out).unwrap();
    out
}

/// `body` framed by hand, one chunk per byte run, every size line carrying
/// an extension and upper-case hex.
fn chunked_with_extensions(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for piece in body.chunks(13) {
        out.extend_from_slice(format!("{:X};ext={}\r\n", piece.len(), piece.len()).as_bytes());
        out.extend_from_slice(piece);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0;last\r\n\r\n");
    out
}

/// Check that `raw` decodes to `expect` at every split, and that the start
/// line reads as the request or response it is.
fn assert_decodes(raw: &[u8], expect: &Message, request: bool) {
    for cut in 0..=raw.len() {
        let (message, rest) = read_split(raw, cut)
            .unwrap_or_else(|e| panic!("cut {cut}: {e}\n{}", String::from_utf8_lossy(raw)))
            .unwrap_or_else(|| panic!("cut {cut}: incomplete"));
        assert_eq!(rest, b"", "cut {cut}");
        assert_eq!(&message, expect, "cut {cut}");
    }
    let message = expect.clone();
    if request {
        let req = Request::from_message(message).unwrap();
        assert_eq!(req.body, expect.body);
    } else {
        let resp = HttpResponse::from_message(message).unwrap();
        assert!(resp.status >= 200, "{}", resp.status);
    }
}

/// Check that `raw` is a typed error at every split.
fn assert_rejected(raw: &[u8], what: &str) {
    for cut in 0..=raw.len() {
        if let Ok(done) = read_split(raw, cut) {
            panic!(
                "{what}, cut {cut}: accepted as {done:?}\n{}",
                String::from_utf8_lossy(raw)
            );
        }
    }
}

#[test]
fn valid_messages_decode_to_their_bytes_at_every_split() {
    let mut checked = 0;
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = rng.random_bool(0.5);
        let start = start_line(&mut rng, request);
        let (wire_headers, mut read_headers) = headers(&mut rng);
        let body = body(&mut rng);
        let (framing, framed) = match seed % 3 {
            0 => (format!("Content-Length: {}", body.len()), body.clone()),
            1 => (
                "Transfer-Encoding: chunked".into(),
                chunked(&mut rng, &body),
            ),
            _ => (
                "transfer-encoding: Chunked".into(),
                chunked_with_extensions(&body),
            ),
        };
        let (name, value) = framing.split_once(": ").unwrap();
        read_headers.push((name.to_ascii_lowercase(), value.to_string()));
        let raw = [
            format!("{start}\r\n{wire_headers}{framing}\r\n\r\n").as_bytes(),
            &framed,
        ]
        .concat();
        let expect = Message {
            start_line: start,
            headers: read_headers,
            body,
        };
        assert_decodes(&raw, &expect, request);
        checked += 1;
    }
    assert_eq!(checked, 96);
}

#[test]
fn broken_framing_is_a_typed_error_at_every_split() {
    let head = "POST /internal/complete HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
    let near_max: Vec<String> = (0..4).map(|k| format!("{:x}", usize::MAX - k)).collect();
    let sizes: Vec<&str> = near_max
        .iter()
        .map(String::as_str)
        .chain(["10000000000000000", "-5", "+5", "", " ", "0x5", "zz", "5 5"])
        .collect();
    let mut cases = 0;
    for size in &sizes {
        // The bad size line first, or after a good chunk, whose length
        // joins the running total the size is checked against.
        for prefix in ["", "1\r\nA\r\n", "3;x=y\r\nabc\r\n"] {
            let raw = format!("{head}{prefix}{size}\r\nhello\r\n0\r\n\r\n");
            assert_rejected(raw.as_bytes(), &format!("size '{size}'"));
            cases += 1;
        }
    }
    for len in 1..21 {
        let data = vec![b'z'; len];
        // The CRLF after a chunk's data replaced by other bytes.
        let mut broken = Vec::new();
        write_chunk(&mut broken, &data).unwrap();
        broken.truncate(broken.len() - 2);
        broken.extend_from_slice(b"XY");
        finish_chunks(&mut broken).unwrap();
        assert_rejected(&[head.as_bytes(), &broken].concat(), "missing chunk CRLF");
        // Trailers after the last chunk.
        let mut trailed = Vec::new();
        write_chunk(&mut trailed, &data).unwrap();
        trailed.extend_from_slice(b"0\r\nx-trailer: 1\r\n\r\n");
        assert_rejected(&[head.as_bytes(), &trailed].concat(), "trailer");
        cases += 2;
    }
    let long_line = format!("{head}{}", "1".repeat(2048));
    assert_rejected(long_line.as_bytes(), "endless size line");
    // Size lines whose CRLF is missing or only half there.
    for stream in [
        "5hello\r\n0\r\n\r\n",
        "5\nhello\r\n0\r\n\r\n",
        "5\rhello\r\n0\r\n\r\n",
    ] {
        assert_rejected(format!("{head}{stream}").as_bytes(), stream);
        cases += 1;
    }
    for bad_head in [
        "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 5\r\n\r\nhello",
        "HTTP/1.1 200 OK\r\ncontent-length: 5\r\ntransfer-encoding: chunked\r\n\r\nhello",
        "POST / HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\nhello",
        "HTTP/1.1 200 OK\r\ncontent-length: -1\r\n\r\n",
        "HTTP/1.1 200 OK\r\ncontent-length: 99999999999999999999999\r\n\r\n",
        "POST / HTTP/1.1\r\ncontent-length: \r\n\r\n",
        "GET / HTTP/1.1\r\nno colon here\r\n\r\n",
    ] {
        assert_rejected(bad_head.as_bytes(), bad_head);
        cases += 1;
    }
    let oversized = format!(
        "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    assert_rejected(oversized.as_bytes(), "oversized body");
    assert_rejected(b"GET / HTTP/1.1\r\nx: \xff\r\n\r\n", "non-UTF-8 head");
    assert!(cases >= 80, "only {cases} broken streams");
}

#[test]
fn bad_start_lines_are_typed_errors() {
    let message = |start: &str| Message {
        start_line: start.into(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    for start in ["", "GET", "GET /", "GET / HTTP/2", "GET / SPDY/3"] {
        assert!(Request::from_message(message(start)).is_err(), "{start:?}");
    }
    for start in ["", "HTTP/1.1", "HTTP/1.1 abc OK", "HTTP/1.1 99999 Big"] {
        assert!(
            HttpResponse::from_message(message(start)).is_err(),
            "{start:?}"
        );
    }
}

#[test]
fn byte_soup_and_mutated_messages_never_panic() {
    let pieces: [&[u8]; 9] = [
        b"\r\n",
        b"\r\n\r\n",
        b"GET / HTTP/1.1",
        b"transfer-encoding: chunked",
        b"content-length: 3",
        b"ffffffffffffffff",
        b";",
        b"0",
        b"\xff",
    ];
    let head = b"POST /runs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
    for seed in 0..160u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut raw = Vec::new();
        if seed % 2 == 0 {
            for _ in 0..rng.random_range(1..24usize) {
                if rng.random_bool(0.7) {
                    raw.extend_from_slice(pieces[rng.random_range(0..pieces.len())]);
                } else {
                    raw.push(rng.random_range(0..256u64) as u8);
                }
            }
        } else {
            // A valid chunked request with a few bytes overwritten.
            let body = body(&mut rng);
            raw = [&head[..], &chunked(&mut rng, &body)].concat();
            for _ in 0..rng.random_range(1..4usize) {
                let at = rng.random_range(0..raw.len());
                raw[at] = rng.random_range(0..256u64) as u8;
            }
        }
        // Any answer will do, as long as it is an answer.
        for cut in 0..=raw.len() {
            if let Ok(Some((message, _))) = read_split(&raw, cut) {
                let _ = Request::from_message(message.clone());
                let _ = HttpResponse::from_message(message);
            }
        }
    }
}
