//! Seeded-loop property tests (the workspace's proptest substitute) for
//! `disp_serve::parse_submission`, the parser of every `POST /runs` body.
//!
//! Inputs: valid ad-hoc and named-campaign bodies (random key order,
//! whitespace, seed spellings, duplicated keys), every truncation of
//! them, one to three byte mutations, and random byte soup. The
//! invariant: nothing panics, a rejected body is an error message, and an
//! accepted body is a spec whose slot count — counted without expanding
//! the grid, as the job table counts it — equals the expanded grid's and
//! stays under the per-request cap.

use disp_rng::StdRng;
use disp_serve::parse_submission;
use disp_serve::server::MAX_JOB_TRIALS;

const FAMILIES: [&str; 6] = ["line", "ring", "star", "rtree", "er6", "hypercube"];
const PLACEMENTS: [&str; 3] = ["rooted", "scatter", "clustered3"];
const SCHEDULES: [&str; 4] = ["sync", "async-rr", "async-lag4", "async-rand0.7"];
const ALGORITHMS: [&str; 4] = ["probe-dfs", "ks-dfs", "sync-seeker", "random-walk"];

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

/// A label from the vocabulary: usually valid, sometimes an illegal
/// combination (a general start for a rooted-only algorithm, ASYNC for a
/// SYNC-only one) or a label that does not parse.
fn label(rng: &mut StdRng) -> String {
    if rng.random_bool(0.05) {
        return pick(
            rng,
            &["star/k0/rooted/sync/probe-dfs", "nope", "", "line/k8"],
        )
        .into();
    }
    let placement = if rng.random_bool(0.8) {
        "rooted"
    } else {
        pick(rng, &PLACEMENTS)
    };
    let schedule = if rng.random_bool(0.6) {
        "sync"
    } else {
        pick(rng, &SCHEDULES)
    };
    format!(
        "{}/k{}/{placement}/{schedule}/{}",
        pick(rng, &FAMILIES),
        rng.random_range(1..40usize),
        pick(rng, &ALGORITHMS),
    )
}

fn space(rng: &mut StdRng) -> &'static str {
    pick(rng, &["", "", " ", "\n", " \t "])
}

/// A seed value in one of its accepted spellings, or a bad one.
fn seed(rng: &mut StdRng) -> String {
    match rng.random_range(0..12u32) {
        0 | 1 => format!("\"{:016x}\"", rng.random_range(0..u64::MAX)),
        2 => "-3".into(),
        3 => "\"seven\"".into(),
        _ => rng.random_range(0..1u64 << 40).to_string(),
    }
}

/// A body as `(key, value)` fields, written in a random order with random
/// whitespace; a field may be written twice.
fn body(rng: &mut StdRng) -> String {
    let mut fields: Vec<(&str, String)> = Vec::new();
    if rng.random_bool(0.8) {
        let labels: Vec<String> = (0..rng.random_range(0..5usize))
            .map(|_| format!("\"{}\"", label(rng)))
            .collect();
        fields.push(("scenarios", format!("[{}]", labels.join(","))));
        if rng.random_bool(0.8) {
            let reps = match rng.random_range(0..16u32) {
                0 => "\"2\"".to_string(),
                1 => "1.5".into(),
                2 => "0".into(),
                3 => "100001".into(),
                _ => rng.random_range(1..5usize).to_string(),
            };
            fields.push(("reps", reps));
        }
    } else {
        let name = pick(rng, &["mini", "table1", "placements", "nope"]);
        fields.push(("campaign", format!("\"{name}\"")));
        if rng.random_bool(0.5) {
            fields.push((
                "mode",
                format!("\"{}\"", pick(rng, &["quick", "full", "x"])),
            ));
        }
    }
    if rng.random_bool(0.1) {
        fields.push(("campaign", "\"mini\"".into()));
    }
    if rng.random_bool(0.7) {
        fields.push(("seed", seed(rng)));
    }
    if rng.random_bool(0.2) {
        let dup = fields[rng.random_range(0..fields.len())].clone();
        fields.push(dup);
    }
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.random_range(0..i + 1));
    }
    let mut out = format!("{}{{", space(rng));
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}\"{key}\"{}:{}{value}",
            space(rng),
            space(rng),
            space(rng)
        ));
    }
    out.push_str(&format!("{}}}{}", space(rng), space(rng)));
    out
}

/// Parse `bytes`; an accepted spec must count its slots as its expanded
/// grid does, under the cap.
fn check(bytes: &[u8]) -> bool {
    match parse_submission(bytes) {
        Ok(spec) => {
            let slots = spec.slot_count();
            assert_eq!(
                slots,
                spec.trials().len(),
                "{}",
                String::from_utf8_lossy(bytes)
            );
            assert!(slots <= MAX_JOB_TRIALS);
            true
        }
        Err(msg) => {
            assert!(!msg.is_empty());
            false
        }
    }
}

#[test]
fn valid_bodies_and_every_truncation_parse_or_fail_cleanly() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0b0d);
    let mut accepted = 0;
    for _ in 0..60 {
        let body = body(&mut rng);
        accepted += usize::from(check(body.as_bytes()));
        for cut in 0..body.len() {
            check(&body.as_bytes()[..cut]);
        }
    }
    // The generator is not all noise: most bodies are good grids.
    assert!(accepted >= 15, "only {accepted} of 60 bodies accepted");
}

#[test]
fn a_known_body_counts_its_slots_and_rejects_the_oversized() {
    let body = br#"{"scenarios":["star/k8/rooted/sync/probe-dfs","line/k4/rooted/sync/ks-dfs"],"reps":3,"seed":"000000000000002a"}"#;
    let spec = parse_submission(body).unwrap();
    assert_eq!((spec.slot_count(), spec.seed), (6, 42));
    let big = format!(
        r#"{{"scenarios":["star/k8/rooted/sync/probe-dfs"],"reps":{}}}"#,
        MAX_JOB_TRIALS + 1
    );
    let err = parse_submission(big.as_bytes()).unwrap_err();
    assert!(err.contains("per-request cap"), "{err}");
}

#[test]
fn mutated_bodies_and_byte_soup_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xfa22_0b0d);
    let palette: &[u8] = b"{}[]\",:0123456789-.e \\nuatrs\xff\xc3";
    for _ in 0..1_500 {
        let mut bytes = body(&mut rng).into_bytes();
        for _ in 0..rng.random_range(1..4usize) {
            let at = rng.random_range(0..bytes.len());
            match rng.random_range(0..3u32) {
                0 => bytes[at] = palette[rng.random_range(0..palette.len())],
                1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, palette[rng.random_range(0..palette.len())]),
            }
            if bytes.is_empty() {
                break;
            }
        }
        check(&bytes);
    }
    for _ in 0..1_000 {
        let len = rng.random_range(0..64usize);
        let soup: Vec<u8> = (0..len)
            .map(|_| palette[rng.random_range(0..palette.len())])
            .collect();
        check(&soup);
    }
}
