//! Seeded-loop property tests (the workspace's proptest substitute) for
//! the coordinator↔worker frames of `disp_cluster::proto` that arrive
//! from another process: the complete body (an upload's header line and
//! its per-slot meta and record lines), the lease reply, the reconcile
//! request and the worker reference of lease and heartbeat bodies.
//!
//! Valid frames are built from random values (seeds past 2^53, every
//! lease status, missing and present optional fields) and from the golden
//! co-location records. Each is read whole, cut at every split point, and
//! with one to three characters replaced, inserted or deleted; random
//! token soup goes through the same decoders. The invariant: nothing
//! panics, a valid frame decodes to the value it encodes, a torn frame is
//! a typed error (a complete body torn between two uploads decodes to the
//! uploads before the tear), and whatever decodes re-encodes to a frame
//! that decodes to the same value.

use disp_analysis::TrialRecord;
use disp_cluster::proto::{
    decode_complete_body, decode_reconcile, decode_worker_ref, encode_complete_body,
    encode_reconcile, encode_worker_ref, CompleteHeader, Upload,
};
use disp_cluster::{BatchAssignment, LeaseReply, SlotSpec, WorkerStats};
use disp_rng::StdRng;

const GOLDEN: &str = include_str!("../../../tests/golden/colocation.trials.jsonl");

/// One frame kind: its decoder, and a re-encoding of what it decoded.
struct Kind {
    name: &'static str,
    /// Decodes `text` and re-encodes the value it reads, or the error.
    reencode: fn(&str) -> Result<String, String>,
    /// Whether a frame read up to a line boundary may decode (the
    /// complete body's uploads are line pairs).
    lines: bool,
}

type WorkerRef = (String, Option<(String, u64)>, Option<WorkerStats>);

fn encode_ref((worker, job, stats): &WorkerRef) -> String {
    encode_worker_ref(worker, job.as_ref().map(|(j, b)| (j.as_str(), *b)), *stats)
}

fn encode_reconcile_of(
    (worker, job, batch, digests): &(String, String, u64, Vec<Option<u64>>),
) -> String {
    encode_reconcile(worker, job, *batch, digests)
}

const KINDS: [Kind; 4] = [
    Kind {
        name: "complete body",
        reencode: |text| decode_complete_body(text).map(|(h, u)| encode_complete_body(&h, &u)),
        lines: true,
    },
    Kind {
        name: "lease reply",
        reencode: |text| LeaseReply::decode(text).map(|reply| reply.encode()),
        lines: false,
    },
    Kind {
        name: "reconcile",
        reencode: |text| decode_reconcile(text).map(|r| encode_reconcile_of(&r)),
        lines: false,
    },
    Kind {
        name: "worker ref",
        reencode: |text| decode_worker_ref(text).map(|r| encode_ref(&r)),
        lines: false,
    },
];

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

/// A `u64` that is small, near a power of two, or uniform (past 2^53).
fn some_u64(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..3u64) {
        0 => rng.random_range(0..1000u64),
        1 => 1u64 << rng.random_range(0..64u64),
        _ => rng.next_u64(),
    }
}

/// A small count, which the frames carry as plain JSON numbers.
fn count(rng: &mut StdRng) -> u64 {
    rng.random_range(0..1u64 << 40)
}

fn name(rng: &mut StdRng) -> String {
    pick(rng, &["w1", "worker-7", "", "a\"b", "r0", "r12", "é\\n"]).to_string()
}

fn upload(rng: &mut StdRng, lines: &[&str]) -> Upload {
    let line = lines[rng.random_range(0..lines.len())];
    Upload {
        slot: rng.random_range(0..512usize),
        wall_micros: count(rng),
        cached: rng.random_bool(0.5),
        line: line.to_string(),
        record: TrialRecord::from_json_line(line).expect("a golden record"),
    }
}

fn complete_body(rng: &mut StdRng, lines: &[&str]) -> (CompleteHeader, Vec<Upload>) {
    let header = CompleteHeader {
        worker: name(rng),
        job: name(rng),
        batch: count(rng),
    };
    let uploads = (0..rng.random_range(0..4usize))
        .map(|_| upload(rng, lines))
        .collect();
    (header, uploads)
}

fn lease_reply(rng: &mut StdRng) -> LeaseReply {
    match rng.random_range(0..3u64) {
        0 => LeaseReply::Idle {
            retry_ms: count(rng),
        },
        1 => LeaseReply::Draining,
        _ => LeaseReply::Batch(BatchAssignment {
            job: name(rng),
            batch: count(rng),
            lease_ms: count(rng),
            slots: (0..rng.random_range(0..5usize))
                .map(|_| SlotSpec {
                    label: pick(
                        rng,
                        &[
                            "star/k64/rooted/sync/probe-dfs",
                            "er6/k32/occ0.5/scatter/async-rand0.7/ks-dfs",
                            "not a label",
                        ],
                    )
                    .to_string(),
                    rep: rng.random_range(0..8usize),
                    seed: some_u64(rng),
                    repetitions: rng.random_range(1..9usize),
                })
                .collect(),
        }),
    }
}

fn reconcile(rng: &mut StdRng) -> (String, String, u64, Vec<Option<u64>>) {
    let digests = (0..rng.random_range(0..6usize))
        .map(|_| rng.random_bool(0.7).then(|| some_u64(rng)))
        .collect();
    (name(rng), name(rng), count(rng), digests)
}

fn worker_ref(rng: &mut StdRng) -> WorkerRef {
    let job = rng.random_bool(0.5).then(|| (name(rng), count(rng)));
    let stats = rng.random_bool(0.5).then(|| WorkerStats {
        executed: count(rng),
        local_hits: count(rng),
        uploaded: count(rng),
        batches: count(rng),
        abandoned: count(rng),
    });
    (name(rng), job, stats)
}

/// Decode `text` as `kind` without panicking; if it decodes, its
/// re-encoding must decode to the same frame.
fn decode(kind: &Kind, text: &str) -> Result<String, String> {
    let result = std::panic::catch_unwind(|| (kind.reencode)(text))
        .unwrap_or_else(|_| panic!("{} decoder panicked on {text:?}", kind.name));
    if let Ok(again) = &result {
        assert_eq!(
            (kind.reencode)(again).as_ref(),
            Ok(again),
            "{}: {text:?} does not re-encode stably",
            kind.name
        );
    }
    result
}

/// Every cut of the valid frame `text`: a proper suffix is an error, and
/// so is a proper prefix, except that a complete body read up to a line
/// boundary decodes to the header and the uploads before the tear.
fn check_cuts(kind: &Kind, text: &str) {
    for cut in (1..text.len()).filter(|&c| text.is_char_boundary(c)) {
        assert!(
            decode(kind, &text[cut..]).is_err(),
            "{}: the suffix at {cut} of {text:?} decoded",
            kind.name
        );
        if let Ok(prefix) = decode(kind, &text[..cut]) {
            assert!(
                kind.lines && text.starts_with(prefix.as_str()),
                "{}: the prefix at {cut} of {text:?} decoded as {prefix:?}",
                kind.name
            );
        }
    }
}

/// `text` with one to three characters replaced, inserted or deleted.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let alphabet = [
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\n", " ", "0", "9", "-", ".", "e", "x", "é",
    ];
    let mut chars: Vec<String> = text.chars().map(String::from).collect();
    for _ in 0..rng.random_range(1..4usize) {
        let at = rng.random_range(0..chars.len() + 1);
        let c = pick(rng, &alphabet).to_string();
        match rng.random_range(0..3u64) {
            0 if at < chars.len() => chars[at] = c,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
    }
    chars.concat()
}

/// Random concatenations of JSON tokens and frame keys.
fn soup(rng: &mut StdRng) -> String {
    let pieces = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\n",
        "1",
        "-1",
        "1e400",
        "1.5",
        "null",
        "true",
        "\"status\":",
        "\"batch\"",
        "\"idle\"",
        "\"slots\":",
        "\"worker\":",
        "\"job\":",
        "\"digests\":",
        "\"stats\":",
        "\"slot\":",
        "\"cached\":",
        "\"ffffffffffffffff\"",
    ];
    (0..rng.random_range(0..30usize))
        .map(|_| pick(rng, &pieces))
        .collect()
}

/// Valid frames of every kind, each checked to decode to its value.
fn frames(rng: &mut StdRng) -> Vec<(usize, String)> {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    let mut frames = Vec::new();
    for _ in 0..6 {
        let (header, uploads) = complete_body(rng, &lines);
        let text = encode_complete_body(&header, &uploads);
        assert_eq!(decode_complete_body(&text), Ok((header, uploads)));
        frames.push((0, text));
    }
    for _ in 0..24 {
        let reply = lease_reply(rng);
        let text = reply.encode();
        assert_eq!(LeaseReply::decode(&text), Ok(reply));
        frames.push((1, text));
        let request = reconcile(rng);
        let text = encode_reconcile_of(&request);
        assert_eq!(decode_reconcile(&text), Ok(request));
        frames.push((2, text));
        let body = worker_ref(rng);
        let text = encode_ref(&body);
        assert_eq!(decode_worker_ref(&text), Ok(body));
        frames.push((3, text));
    }
    frames
}

#[test]
fn valid_frames_round_trip_and_torn_frames_are_errors() {
    let mut rng = StdRng::seed_from_u64(0x9707_0001);
    let frames = frames(&mut rng);
    for (kind, text) in &frames {
        check_cuts(&KINDS[*kind], text);
    }
    assert_eq!(frames.len(), 6 + 3 * 24);
}

#[test]
fn mutated_frames_and_token_soup_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x9707_0002);
    let (mut inputs, mut decoded) = (0usize, 0usize);
    for (kind, text) in frames(&mut rng) {
        for _ in 0..20 {
            inputs += 1;
            decoded += usize::from(decode(&KINDS[kind], &mutate(&mut rng, &text)).is_ok());
        }
    }
    for _ in 0..500 {
        let text = soup(&mut rng);
        for kind in &KINDS {
            let _ = decode(kind, &text);
        }
    }
    // Many mutations land in a string or a digit and keep a frame valid.
    assert!(
        decoded > 0 && decoded < inputs,
        "{decoded} of {inputs} decoded"
    );
}
