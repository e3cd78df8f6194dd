//! Seeded-loop differential fuzz of the one-pass trial-record decoder
//! (`TrialRecord::from_json_line`), which reads every `trials.jsonl`
//! line, every `cache.jsonl` line and every cluster upload.
//!
//! The oracle is a tree decoder kept here, test-local, as `reference`: a
//! whole [`Json`] tree from `Json::parse`, then field lookups with
//! `Json::get`, which is how the record line used to be read. Inputs are the
//! lines of a grid that covers every graph family, schedule, placement
//! and fault kind, plus the 100 golden co-location records, and from each
//! line: every prefix and suffix (torn writes), one to three character
//! mutations, keys reordered at every level, whitespace around every
//! token, keys spelled with `\u` escapes, unknown keys (one a 200-deep
//! array) and duplicate keys; plus byte soup. The invariant: nothing
//! panics, both decoders accept or reject alike, and they decode the same
//! record. Both hold a scenario's occupancy to `validate`'s (0, 1], so an
//! out-of-range value is an error, never a label.

use disp_analysis::{ExperimentPoint, Json, TrialRecord};
use disp_core::scenario::{Limits, ParamValue, Params, ScenarioSpec, Schedule};
use disp_graph::generators::GraphFamily;
use disp_rng::prelude::*;
use disp_sim::{Outcome, Placement};

const GOLDEN: &str = include_str!("../../../tests/golden/colocation.trials.jsonl");

// ---------------------------------------------------------------------------
// The reference: a tree, then `Json::get` lookups
// ---------------------------------------------------------------------------

fn reference(line: &str) -> Result<TrialRecord, String> {
    let v = Json::parse(line)?;
    let scenario = v.get("scenario").ok_or("trial: missing scenario")?;
    let point = ExperimentPoint {
        scenario: reference_scenario(scenario)?,
        repetitions: v
            .get("repetitions")
            .and_then(Json::as_u64)
            .ok_or("trial: missing repetitions")? as usize,
    };
    let outcome_obj = v.get("outcome").ok_or("trial: missing outcome")?;
    let outcome = Outcome::from_named(|name| outcome_obj.get(name).and_then(Json::as_u64))
        .ok_or("trial: incomplete outcome")?;
    Ok(TrialRecord {
        point,
        rep: v
            .get("rep")
            .and_then(Json::as_u64)
            .ok_or("trial: missing rep")? as usize,
        seed: v
            .get("seed")
            .and_then(Json::as_u64_lossless)
            .ok_or("trial: missing seed")?,
        outcome,
        dispersed: v
            .get("dispersed")
            .and_then(Json::as_bool)
            .ok_or("trial: missing dispersed")?,
    })
}

fn reference_scenario(v: &Json) -> Result<ScenarioSpec, String> {
    let text = |key: &str| v.get(key).and_then(Json::as_str).ok_or(format!("no {key}"));
    let family = GraphFamily::from_label(text("family")?).ok_or("unknown family")?;
    let k = v.get("k").and_then(Json::as_u64).ok_or("missing k")? as usize;
    let occupancy = match v.get("occupancy") {
        None => 1.0,
        Some(Json::Str(s)) => disp_core::scenario::parse_f64(s).ok_or("non-canonical")?,
        Some(other) => other.as_f64().ok_or("bad occupancy")?,
    };
    if !(occupancy > 0.0 && occupancy <= 1.0) {
        return Err("occupancy outside (0, 1]".into());
    }
    let placement = Placement::from_label(text("placement")?).ok_or("unknown placement")?;
    let schedule = Schedule::from_label(text("schedule")?).ok_or("unknown schedule")?;
    // A key present at its "absent" value is rejected, not normalized.
    let present = |key: &str, absent: u64| -> Result<Option<u64>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(x) => match x.as_u64() {
                Some(n) if n > absent => Ok(Some(n)),
                _ => Err(format!("bad {key}")),
            },
        }
    };
    let dyn_ring = present("dyn_ring", 0)?;
    let crashes = present("crashes", 0)?.unwrap_or(0);
    let min_distance = present("min_distance", 1)?.unwrap_or(1);
    let algorithm = text("algorithm")?.to_string();
    let mut params = Params::new();
    if let Some(Json::Obj(entries)) = v.get("params") {
        for (key, value) in entries {
            let text = value.as_str().ok_or("param values are strings")?;
            params = params.set(key, ParamValue::parse(text).ok_or("bad param value")?);
        }
    }
    let mut limits = Limits::default();
    if let Some(obj) = v.get("limits") {
        limits.max_rounds = obj.get("max_rounds").and_then(Json::as_u64);
        limits.max_steps = obj.get("max_steps").and_then(Json::as_u64);
    }
    Ok(ScenarioSpec {
        family,
        k,
        occupancy,
        placement,
        schedule,
        dyn_ring,
        crashes,
        min_distance,
        algorithm,
        params,
        limits,
    })
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Record lines over every family × schedule, each with a rotating
/// placement, fault kind, occupancy, params and limits, and random
/// outcomes (counters past 2^53 included).
fn grid_lines(rng: &mut StdRng) -> Vec<String> {
    let mut families = GraphFamily::all();
    families.extend([
        GraphFamily::RandomRegular { degree: 3 },
        GraphFamily::ErdosRenyi { avg_degree: 2.5 },
        GraphFamily::Caterpillar { legs: 1 },
    ]);
    let schedules = [
        Schedule::Sync,
        Schedule::AsyncRoundRobin,
        Schedule::AsyncRandom { prob: 0.7 },
        Schedule::AsyncLagging { max_lag: 4 },
        Schedule::AsyncTargeted { max_lag: 3 },
    ];
    let placements = [
        Placement::Rooted,
        Placement::ScatteredUniform,
        Placement::Clustered { clusters: 4 },
        Placement::AdversarialSpread,
    ];
    let mut lines = Vec::new();
    for (f, &family) in families.iter().enumerate() {
        for (s, &schedule) in schedules.iter().enumerate() {
            let i = f * schedules.len() + s;
            let mut spec = ScenarioSpec::new(family, 8 << (i % 5), "probe-dfs")
                .with_schedule(schedule)
                .with_placement(placements[i % placements.len()]);
            match i % 4 {
                0 => spec = spec.with_dynamic_ring(1 + (i as u64 % 3)),
                1 => spec = spec.with_crashes(1 + (i as u64 % 5)),
                2 => spec = spec.with_min_distance(2 + (i as u64 % 2)),
                _ => {}
            }
            if i.is_multiple_of(3) {
                spec = spec.with_occupancy(0.5);
            }
            if i % 5 == 1 {
                spec = spec
                    .with_param("wait", ParamValue::U64(6))
                    .with_param("bias", ParamValue::F64(0.25))
                    .with_param("lazy", ParamValue::Bool(true));
            }
            if i % 7 == 2 {
                spec = spec.with_limits(Limits {
                    max_rounds: Some(20_000),
                    max_steps: i.is_multiple_of(2).then_some(90_000),
                });
            }
            let mut values = [0u64; 12];
            for v in &mut values {
                *v = match rng.random_range(0..8u64) {
                    0 => rng.next_u64(),
                    1 => 0,
                    _ => rng.random_range(0..100_000u64),
                };
            }
            values[7] = rng.random_range(0..2u64);
            let record = TrialRecord {
                point: ExperimentPoint::new(spec, 1 + i % 3),
                rep: i % 3,
                seed: rng.next_u64(),
                outcome: Outcome::from_fields(values),
                dispersed: rng.random_bool(0.5),
            };
            lines.push(record.to_json_line());
        }
    }
    lines
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

/// Characters the mutations draw from: JSON syntax, digits, letters of
/// the keys and literals, escapes and a non-ASCII character.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', ' ', '\n', '0', '1', '9', '.', '-', '+', 'e', 'E',
    'u', 't', 'f', 'n', 'a', 'r', 's', 'l', 'x', 'é',
];

/// One to three random character deletions, insertions or replacements.
fn mutate(rng: &mut StdRng, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..rng.random_range(1..4usize) {
        let c = ALPHABET[rng.random_range(0..ALPHABET.len())];
        match rng.random_range(0..3u64) {
            0 if chars.len() > 1 => {
                chars.remove(rng.random_range(0..chars.len()));
            }
            1 => chars.insert(rng.random_range(0..chars.len() + 1), c),
            _ if !chars.is_empty() => {
                let i = rng.random_range(0..chars.len());
                chars[i] = c;
            }
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

/// `v` with every object's keys in a random order.
fn shuffled(rng: &mut StdRng, v: &Json) -> Json {
    match v {
        Json::Obj(fields) => {
            let mut fields: Vec<(String, Json)> = fields
                .iter()
                .map(|(k, v)| (k.clone(), shuffled(rng, v)))
                .collect();
            fields.shuffle(rng);
            Json::Obj(fields)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(|v| shuffled(rng, v)).collect()),
        other => other.clone(),
    }
}

fn ws(rng: &mut StdRng, out: &mut String) {
    for _ in 0..rng.random_range(0..3usize) {
        out.push_str(pick(rng, &[" ", "\t", "\n", "\r", "  "]));
    }
}

/// `v` printed with random whitespace around every token and, in some
/// keys, letters spelled as `\u` escapes.
fn spaced(rng: &mut StdRng, v: &Json, out: &mut String) {
    ws(rng, out);
    match v {
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    ws(rng, out);
                    out.push(',');
                }
                ws(rng, out);
                out.push('"');
                for c in k.chars() {
                    if rng.random_bool(0.1) {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    } else {
                        out.push(c);
                    }
                }
                out.push('"');
                ws(rng, out);
                out.push(':');
                spaced(rng, v, out);
            }
            ws(rng, out);
            out.push('}');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                spaced(rng, v, out);
            }
            ws(rng, out);
            out.push(']');
        }
        leaf => out.push_str(&leaf.to_string_compact()),
    }
    ws(rng, out);
}

/// Values an unknown or duplicate key may carry: every JSON kind, the
/// record's own value kinds, and arrays at and past the nesting bound.
fn some_value(rng: &mut StdRng) -> String {
    let deep = |d: usize| "[".repeat(d) + &"]".repeat(d);
    match rng.random_range(0..13u64) {
        0 => deep(200),
        1 => deep(100),
        2 => deep(127),
        12 => deep(128),
        3 => r#"{"a":[1,"xA",{"b":null}],"c":{}}"#.into(),
        4 => format!("\"{:016x}\"", rng.next_u64()),
        5 => rng.random_range(0..1000u64).to_string(),
        6 => pick(rng, &["-1", "1.5", "1e3", "0", "1e400", "-0"]).into(),
        7 => pick(rng, &["true", "false", "null"]).into(),
        8 => pick(
            rng,
            &["\"line\"", "\"rooted\"", "\"sync\"", "\"0.5\"", "\"x\""],
        )
        .into(),
        9 => r#"{"wait":"6"}"#.into(),
        10 => r#"{"max_rounds":5}"#.into(),
        _ => "[]".into(),
    }
}

/// `line` with `"key":value,` inserted after a random object's `{`.
fn with_unknown_key(rng: &mut StdRng, line: &str) -> String {
    let opens: Vec<usize> = line.match_indices('{').map(|(i, _)| i).collect();
    let at = opens[rng.random_range(0..opens.len())] + 1;
    // Unknown names, and the record's own names: inserted first in their
    // object, these win over the key they duplicate, whatever their value.
    let key = pick(
        rng,
        &[
            "zz",
            "",
            "scenario2",
            "k\\u0078",
            "outcom",
            "params",
            "limits",
            "occupancy",
            "seed",
            "rep",
            "steps",
        ],
    );
    format!(
        "{}\"{key}\":{},{}",
        &line[..at],
        some_value(rng),
        &line[at..]
    )
}

/// `v` with one field of a random object repeated, before or after the
/// original, carrying another value or the same one.
fn with_duplicate_key(rng: &mut StdRng, v: &Json) -> Json {
    let mut out = v.clone();
    let mut at = &mut out;
    while let Json::Obj(fields) = at {
        if fields.is_empty() {
            break;
        }
        let i = rng.random_range(0..fields.len());
        let descend = matches!(fields[i].1, Json::Obj(_)) && rng.random_bool(0.5);
        if !descend {
            let value = if rng.random_bool(0.3) {
                fields[i].1.clone()
            } else {
                Json::parse(&some_value(rng)).unwrap_or(Json::Null)
            };
            let copy = (fields[i].0.clone(), value);
            let to = if rng.random_bool(0.5) { i } else { i + 1 };
            fields.insert(to, copy);
            break;
        }
        at = &mut fields[i].1;
    }
    out
}

/// Random concatenations of JSON tokens and record keys.
fn soup(rng: &mut StdRng) -> String {
    let pieces = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        " ",
        "1",
        "-0",
        "1e9",
        "true",
        "null",
        "\"scenario\":",
        "\"outcome\":",
        "\"rep\":",
        "\"seed\":",
        "\"k\":",
        "\"family\":",
        "\"line\"",
        "\"x\\u00e9\"",
        "\"dispersed\":",
        "é",
        "\n",
    ];
    (0..rng.random_range(0..40usize))
        .map(|_| pick(rng, &pieces))
        .collect()
}

/// Mutation rounds per line; each round makes six inputs.
const ROUNDS: usize = 10;

// ---------------------------------------------------------------------------
// The check
// ---------------------------------------------------------------------------

/// Both decoders on `input`: no panic, the same verdict, the same record.
fn agree(input: &str, accepted: &mut usize) {
    let decoded = std::panic::catch_unwind(|| TrialRecord::from_json_line(input))
        .unwrap_or_else(|_| panic!("from_json_line panicked on {input:?}"));
    let expected = std::panic::catch_unwind(|| reference(input))
        .unwrap_or_else(|_| panic!("the reference panicked on {input:?}"));
    match (decoded, expected) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "decoders differ on {input:?}");
            *accepted += 1;
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!("verdicts differ on {input:?}: {a:?} vs {b:?}"),
    }
}

/// The grid lines and the golden lines, each checked to decode and to
/// re-encode to itself.
fn lines(rng: &mut StdRng) -> Vec<String> {
    let mut lines = grid_lines(rng);
    lines.extend(GOLDEN.lines().map(str::to_string));
    assert_eq!(lines.len(), 17 * 5 + 100);
    for line in &lines {
        let record = TrialRecord::from_json_line(line).unwrap();
        assert_eq!(&record.to_json_line(), line);
    }
    lines
}

#[test]
fn an_unknown_key_is_held_to_the_nesting_bound() {
    // Both decoders share the lexer, so the bound itself is pinned here:
    // a value of the record object sits at depth 1, and nothing may nest
    // deeper than 128 levels.
    let mut rng = StdRng::seed_from_u64(0x5EC0_4D02);
    for line in lines(&mut rng) {
        for (depth, ok) in [(127, true), (128, false), (200, false)] {
            let deep = "[".repeat(depth) + &"]".repeat(depth);
            let input = format!("{{\"zz\":{deep},{}", &line[1..]);
            assert_eq!(TrialRecord::from_json_line(&input).is_ok(), ok, "{depth}");
            assert_eq!(reference(&input).is_ok(), ok, "{depth}");
        }
    }
}

#[test]
fn an_occupancy_outside_the_unit_interval_is_an_error() {
    // `validate`'s rule: a number past f64's range read as infinity, and
    // -1, 0 and 1.5 as labels no scenario may have; canonical strings too.
    let line = GOLDEN
        .lines()
        .find(|l| l.contains(r#""occupancy":"0.5""#))
        .expect("a scattered golden record");
    for value in [
        "1e400",
        "-1",
        "0",
        "1.5",
        r#""-1.0""#,
        r#""0.0""#,
        r#""1.5""#,
    ] {
        let input = line.replace(r#""occupancy":"0.5""#, &format!(r#""occupancy":{value}"#));
        let decoded = TrialRecord::from_json_line(&input);
        assert!(decoded.unwrap_err().contains("outside (0, 1]"), "{value}");
        assert!(reference(&input).is_err(), "{value}");
    }
}

#[test]
fn every_cut_of_every_line_decodes_alike() {
    let mut rng = StdRng::seed_from_u64(0x5EC0_4D00);
    let mut accepted = 0;
    for line in lines(&mut rng) {
        for cut in 0..=line.len() {
            agree(&line[..cut], &mut accepted);
            agree(&line[cut..], &mut accepted);
        }
    }
    // Only the whole line, as its own prefix and as its own suffix.
    assert_eq!(accepted, 2 * 185);
}

#[test]
fn mutated_reordered_and_padded_lines_and_byte_soup_decode_alike() {
    let mut rng = StdRng::seed_from_u64(0x5EC0_4D01);
    let (mut inputs, mut accepted) = (0usize, 0usize);
    let mut check = |input: &str| {
        inputs += 1;
        agree(input, &mut accepted);
    };
    for line in lines(&mut rng) {
        let tree = Json::parse(&line).unwrap();
        for _ in 0..ROUNDS {
            check(&mutate(&mut rng, &line));
            let reordered = shuffled(&mut rng, &tree);
            check(&reordered.to_string_compact());
            let mut text = String::new();
            spaced(&mut rng, &reordered, &mut text);
            check(&text);
            let unknown = with_unknown_key(&mut rng, &line);
            check(&unknown);
            check(&mutate(&mut rng, &unknown));
            check(&with_duplicate_key(&mut rng, &reordered).to_string_compact());
        }
    }
    for _ in 0..5_000 {
        check(&soup(&mut rng));
    }
    // Reordering, whitespace, escaped keys and most unknown and duplicate
    // keys keep a line valid, so a good share of inputs must decode.
    assert!(
        accepted * 3 > inputs,
        "{accepted} of {inputs} inputs decoded"
    );
}
