//! The reply contract of every `disp-serve` route, as one table: for each
//! route and each of its error branches, the status, the `content-type`,
//! the framing (`content-length` or `transfer-encoding: chunked`) and
//! whether the request moved `disp_http_errors_total`.

use disp_analysis::json::Json;
use disp_serve::{parse_metric, Client, HttpResponse, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How a reply delimits its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    Length,
    Chunked,
}

use Framing::{Chunked, Length};

struct Case {
    method: &'static str,
    path: String,
    body: Option<Vec<u8>>,
    status: u16,
    content_type: &'static str,
    framing: Framing,
    counts_error: bool,
}

fn case(method: &'static str, path: impl Into<String>, status: u16) -> Case {
    // Errors are JSON documents with a fixed length and count as errors;
    // the rows that differ say so.
    Case {
        method,
        path: path.into(),
        body: None,
        status,
        content_type: "application/json",
        framing: Length,
        counts_error: status >= 400,
    }
}

impl Case {
    fn body(mut self, body: &str) -> Case {
        self.body = Some(body.as_bytes().to_vec());
        self
    }

    fn replies(mut self, content_type: &'static str, framing: Framing) -> Case {
        self.content_type = content_type;
        self.framing = framing;
        self
    }
}

fn errors_total(client: &mut Client) -> u64 {
    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    parse_metric(&resp.text(), "disp_http_errors_total").expect("error counter exported")
}

fn framing(resp: &HttpResponse) -> Option<Framing> {
    let chunked = resp
        .header("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    match (resp.header("content-length"), chunked) {
        (Some(_), false) => Some(Length),
        (None, true) => Some(Chunked),
        _ => None,
    }
}

fn submit(client: &mut Client, label: &str, reps: u64) -> String {
    let body = format!(r#"{{"scenarios":["{label}"],"reps":{reps},"seed":3}}"#);
    let resp = client
        .request("POST", "/runs", Some(body.into_bytes()))
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let doc = resp.json().unwrap();
    doc.get("id").and_then(Json::as_str).unwrap().to_string()
}

/// Poll `/runs/:id` until the run leaves `queued`/`running`.
fn settle(client: &mut Client, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let doc = client.get(&format!("/runs/{id}")).unwrap().json().unwrap();
        match doc.get("state").and_then(Json::as_str) {
            Some("queued" | "running") => {
                assert!(Instant::now() < deadline, "run {id} never settled");
                std::thread::sleep(Duration::from_millis(10));
            }
            Some(state) => return state.to_string(),
            None => panic!("run {id} has no state: {doc:?}"),
        }
    }
}

#[test]
fn every_route_and_error_branch_keeps_its_reply_shape() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: 2,
            job_threads: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::new(&addr);

    let done = submit(&mut client, "star/k8/rooted/sync/probe-dfs", 1);
    assert_eq!(settle(&mut client, &done), "done");
    // Far too many trials to finish before the DELETE lands, so the run
    // always ends cancelled.
    let cancelled = submit(&mut client, "line/k64/rooted/sync/ks-dfs", 20_000);
    assert_eq!(
        client.delete(&format!("/runs/{cancelled}")).unwrap().status,
        200
    );
    assert_eq!(settle(&mut client, &cancelled), "cancelled");

    let label = "star/k8/rooted/sync/probe-dfs";
    // Legal grammar, but probe-dfs needs a rooted start.
    let illegal = "star/k8/scatter/sync/probe-dfs";
    // Parses and runs, but hits its 20-round limit.
    let limited = "line/k32/rooted/sync/probe-dfs/rounds20";
    let jsonl = "application/jsonl";
    let table = vec![
        case("GET", "/healthz", 200),
        case("GET", "/metrics", 200).replies("text/plain", Length),
        case("GET", "/scenarios", 200).replies("text/plain; charset=utf-8", Length),
        case("POST", "/runs", 201).body(&format!(r#"{{"scenarios":["{label}"],"seed":4}}"#)),
        case("POST", "/runs", 400).body("{not json"),
        case("POST", "/runs", 400).body(r#"{"scenarios":["star/k8/rooted/sync/quantum-dfs"]}"#),
        case("GET", format!("/runs/{done}"), 200),
        case("GET", "/runs/r999", 404),
        case("GET", format!("/runs/{done}/events"), 200).replies("text/event-stream", Chunked),
        case("GET", "/runs/r999/events", 404),
        case("GET", format!("/runs/{done}/timeline"), 200).replies(jsonl, Chunked),
        case("GET", "/runs/r999/timeline", 404),
        case("GET", format!("/runs/{done}/results"), 200).replies(jsonl, Chunked),
        case("GET", "/runs/r999/results", 404),
        case("GET", format!("/runs/{done}/results?format=summary"), 200),
        case("GET", "/runs/r999/results?format=summary", 404),
        case("GET", format!("/runs/{cancelled}/results"), 409),
        case("DELETE", format!("/runs/{done}"), 200),
        case("DELETE", "/runs/r999", 404),
        case("PUT", "/runs", 405),
        case("GET", format!("/trace?scenario={label}&seed=2"), 200).replies(jsonl, Chunked),
        case("GET", format!("/trace?scenario={label}&cap=5"), 200).replies(jsonl, Chunked),
        case("GET", "/trace", 400),
        case("GET", "/trace?scenario=nope/k8", 400),
        case("GET", format!("/trace?scenario={illegal}"), 400),
        case("GET", format!("/trace?scenario={label}&seed=minus"), 400),
        case("GET", format!("/trace?scenario={label}&cap=0"), 400),
        case("GET", format!("/trace?scenario={label}&cap=x"), 400),
        case("GET", format!("/trace?scenario={limited}"), 400),
        case("GET", format!("/timeline?scenario={label}&seed=2"), 200).replies(jsonl, Chunked),
        case("GET", format!("/timeline?scenario={label}&budget=4"), 200).replies(jsonl, Chunked),
        case("GET", "/timeline", 400),
        case("GET", "/timeline?scenario=nope/k8", 400),
        case("GET", format!("/timeline?scenario={illegal}"), 400),
        case("GET", format!("/timeline?scenario={label}&seed=-1"), 400),
        case("GET", format!("/timeline?scenario={label}&budget=0"), 400),
        case("GET", format!("/timeline?scenario={label}&budget=x"), 400),
        case("GET", format!("/timeline?scenario={limited}"), 400),
        case("POST", "/internal/lease", 404).body("{}"),
        case("GET", "/nope", 404),
    ];

    for row in &table {
        let before = errors_total(&mut client);
        let resp = client
            .request(row.method, &row.path, row.body.clone())
            .unwrap();
        let moved = errors_total(&mut client) - before;
        let what = format!("{} {}", row.method, row.path);
        assert_eq!(resp.status, row.status, "{what}: {}", resp.text());
        assert_eq!(
            resp.header("content-type"),
            Some(row.content_type),
            "{what}"
        );
        assert_eq!(framing(&resp), Some(row.framing), "{what}");
        assert_eq!(moved, u64::from(row.counts_error), "{what}");
        if row.status >= 400 {
            let doc = resp.json().unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(doc.get("error").and_then(Json::as_str).is_some(), "{what}");
        }
    }

    // A request the server cannot parse gets a fixed-length JSON 400 on a
    // closing connection, and counts as an error.
    let before = errors_total(&mut client);
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GET / HTTP/2\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    let (head, body) = reply.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 400 "), "{head}");
    assert!(
        head.contains("\r\ncontent-type: application/json\r\n"),
        "{head}"
    );
    assert!(
        head.contains(&format!("\r\ncontent-length: {}\r\n", body.len())),
        "{head}"
    );
    assert!(head.ends_with("\r\nconnection: close"), "{head}");
    assert_eq!(body, r#"{"error":"malformed request"}"#);
    assert_eq!(errors_total(&mut client) - before, 1);

    server.shutdown();
}
