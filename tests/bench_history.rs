//! `BENCH_history.jsonl`: one line per change that ran the benchmark's
//! interleaved A/B pairs, so the performance trajectory is data.
//!
//! Each line is one JSON object: `pr` (the change's number, rising line
//! by line), `parent` (the full revision the change was measured
//! against), `change` (what was measured on the other side), `runs` (how
//! the pairs ran) and `metrics`, one entry per workload × metric with the
//! parent and change medians, the parent's quartiles (`parent_iqr`, the
//! interquartile range as `[q1, q3]`), the pairs the change won and the
//! pairs run. This test reads every line with `disp_analysis::json`.

use dispersion::analysis::Json;

/// The workloads and end-to-end metrics `BENCHMARK.json` declares.
fn declared() -> (Vec<String>, Vec<String>) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|item| item.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect(),
            other => panic!("BENCHMARK.json {key}: {other:?}"),
        }
    };
    (names("workloads"), names("end_to_end"))
}

#[test]
fn every_history_line_parses_and_holds_a_complete_ab_summary() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_history.jsonl");
    let text = std::fs::read_to_string(path).unwrap();
    let (workloads, metrics) = declared();
    let mut last_pr = 0;
    for (i, line) in text.lines().enumerate() {
        let at = format!("BENCH_history.jsonl line {}", i + 1);
        let entry = Json::parse(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let pr = entry.get("pr").and_then(Json::as_u64).expect(&at);
        assert!(pr > last_pr, "{at}: pr {pr} after {last_pr}");
        last_pr = pr;
        let parent = entry.get("parent").and_then(Json::as_str).expect(&at);
        assert!(
            parent.len() == 40 && parent.bytes().all(|b| b.is_ascii_hexdigit()),
            "{at}: parent '{parent}' is not a full revision"
        );
        assert!(entry.get("change").and_then(Json::as_str).is_some(), "{at}");
        assert!(matches!(entry.get("runs"), Some(Json::Obj(_))), "{at}");
        let Some(Json::Arr(rows)) = entry.get("metrics") else {
            panic!("{at}: no metrics");
        };
        assert!(!rows.is_empty(), "{at}");
        for row in rows {
            let text = |key: &str| row.get(key).and_then(Json::as_str).expect(&at);
            let num = |key: &str| row.get(key).and_then(Json::as_f64).expect(&at);
            assert!(workloads.iter().any(|w| w == text("workload")), "{at}");
            assert!(metrics.iter().any(|m| m == text("metric")), "{at}");
            assert!(num("parent_median").is_finite() && num("change_median").is_finite());
            let Some(Json::Arr(iqr)) = row.get("parent_iqr") else {
                panic!("{at}: parent_iqr");
            };
            let q: Vec<f64> = iqr.iter().map(|q| q.as_f64().expect(&at)).collect();
            assert!(q.len() == 2 && q[0] <= q[1], "{at}: parent_iqr {q:?}");
            let (won, pairs) = (num("pairs_won"), num("pairs"));
            assert!(pairs >= 1.0 && (0.0..=pairs).contains(&won), "{at}");
        }
    }
    assert!(last_pr > 0, "BENCH_history.jsonl holds no line");
}
