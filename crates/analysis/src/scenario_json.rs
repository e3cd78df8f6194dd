//! Structured JSON codec for [`ScenarioSpec`] — the second canonical wire
//! form next to the label string.
//!
//! The encoding mirrors the label grammar field for field: labels encode the
//! graph family, placement and schedule; parameter values use their
//! canonical text form (so a `u64` is never confused with an `f64`); and
//! defaulted fields (`occupancy` 1.0, empty params, unlimited limits) are
//! omitted. The emitted key order is fixed, which makes
//! `spec → JSON → spec → JSON` byte-identical.
//!
//! The codec is one pass each way: [`write_scenario`] writes the fields
//! straight into the record line being built, and [`read_scenario`] reads
//! them from a [`Reader`] positioned at the scenario object. Keys may come
//! in any order; unknown keys are checked and skipped; of duplicate keys
//! the first wins, as [`crate::Json::get`] would find it.

use crate::json::{ObjectWriter, Reader, Scalar};
use disp_core::scenario::{CanonicalF64, Limits, ParamValue, Params, ScenarioSpec, Schedule};
use disp_graph::generators::GraphFamily;
use disp_sim::Placement;

/// Write the fields of `spec` into the open scenario object `w`.
pub fn write_scenario(spec: &ScenarioSpec, w: &mut ObjectWriter) {
    w.display("family", spec.family);
    w.u64("k", spec.k as u64);
    if spec.occupancy != 1.0 {
        w.display("occupancy", CanonicalF64(spec.occupancy));
    }
    w.display("placement", spec.placement);
    w.display("schedule", spec.schedule);
    // The fault dimensions mirror the label grammar's canonical omission:
    // no key when the world is static / crash-free / plain-dispersion.
    if let Some(rate) = spec.dyn_ring {
        w.u64("dyn_ring", rate);
    }
    if spec.crashes > 0 {
        w.u64("crashes", spec.crashes);
    }
    w.str("algorithm", &spec.algorithm);
    if !spec.params.is_empty() {
        let mut params = w.object("params");
        for (key, value) in spec.params.iter() {
            params.display(key, value);
        }
        params.end();
    }
    if spec.min_distance > 1 {
        w.u64("min_distance", spec.min_distance);
    }
    if spec.limits != Limits::default() {
        let mut limits = w.object("limits");
        if let Some(r) = spec.limits.max_rounds {
            limits.u64("max_rounds", r);
        }
        if let Some(s) = spec.limits.max_steps {
            limits.u64("max_steps", s);
        }
        limits.end();
    }
}

/// `spec` as one compact JSON object.
pub fn encode_scenario(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    let mut w = ObjectWriter::new(&mut out);
    write_scenario(spec, &mut w);
    w.end();
    out
}

/// Decode a document holding one scenario object, as [`encode_scenario`]
/// writes it.
pub fn decode_scenario(text: &str) -> Result<ScenarioSpec, String> {
    let mut reader = Reader::new(text);
    let spec = read_scenario(&mut reader, 0)?;
    reader.finish()?;
    Ok(spec)
}

/// Read the scenario value at the cursor of `r`, nested in `depth`
/// arrays/objects. A value that is not an object is checked and rejected.
pub fn read_scenario(r: &mut Reader, depth: usize) -> Result<ScenarioSpec, String> {
    if r.peek() != Some(b'{') {
        r.scalar(depth)?;
        return Err("scenario: missing family".into());
    }
    r.begin_object(depth)?;
    let inner = depth + 1;
    let mut family = None;
    let mut k = None;
    let mut occupancy = None;
    let mut placement = None;
    let mut schedule = None;
    let mut dyn_ring = None;
    let mut crashes = None;
    let mut algorithm = None;
    let mut params = None;
    let mut min_distance = None;
    let mut limits = None;
    while let Some(key) = r.next_key()? {
        match &*key {
            "family" if family.is_none() => {
                let value = r.scalar(inner)?;
                let label = value.as_str().ok_or("scenario: missing family")?;
                family = Some(
                    GraphFamily::from_label(label)
                        .ok_or_else(|| format!("scenario: unknown family '{label}'"))?,
                );
            }
            "k" if k.is_none() => {
                k = Some(r.scalar(inner)?.as_u64().ok_or("scenario: missing k")? as usize);
            }
            "occupancy" if occupancy.is_none() => {
                let value = match r.scalar(inner)? {
                    Scalar::Str(s) => disp_core::scenario::parse_f64(&s)
                        .ok_or_else(|| format!("scenario: non-canonical occupancy '{s}'"))?,
                    other => other.as_f64().ok_or("scenario: bad occupancy")?,
                };
                // `validate`'s rule, which also keeps non-finite values
                // out of the canonical label.
                if !(value > 0.0 && value <= 1.0) {
                    return Err(format!("scenario: occupancy {value} outside (0, 1]"));
                }
                occupancy = Some(value);
            }
            "placement" if placement.is_none() => {
                let value = r.scalar(inner)?;
                let label = value.as_str().ok_or("scenario: missing placement")?;
                placement = Some(
                    Placement::from_label(label)
                        .ok_or_else(|| format!("scenario: unknown placement '{label}'"))?,
                );
            }
            "schedule" if schedule.is_none() => {
                let value = r.scalar(inner)?;
                let label = value.as_str().ok_or("scenario: missing schedule")?;
                schedule = Some(
                    Schedule::from_label(label)
                        .ok_or_else(|| format!("scenario: unknown schedule '{label}'"))?,
                );
            }
            // Fault keys whose value means "absent" are rejected rather
            // than normalized, keeping spec → JSON → spec → JSON
            // byte-identical.
            "dyn_ring" if dyn_ring.is_none() => {
                let rate = r.scalar(inner)?.as_u64().ok_or("scenario: bad dyn_ring")?;
                if rate == 0 {
                    return Err("scenario: dyn_ring 0 must be omitted".into());
                }
                dyn_ring = Some(rate);
            }
            "crashes" if crashes.is_none() => {
                let f = r.scalar(inner)?.as_u64().ok_or("scenario: bad crashes")?;
                if f == 0 {
                    return Err("scenario: crashes 0 must be omitted".into());
                }
                crashes = Some(f);
            }
            "algorithm" if algorithm.is_none() => {
                let value = r.scalar(inner)?;
                let name = value.as_str().ok_or("scenario: missing algorithm")?;
                algorithm = Some(name.to_string());
            }
            "params" if params.is_none() => params = Some(read_params(r, inner)?),
            "min_distance" if min_distance.is_none() => {
                let d = r
                    .scalar(inner)?
                    .as_u64()
                    .ok_or("scenario: bad min_distance")?;
                if d <= 1 {
                    return Err("scenario: min_distance 0/1 must be omitted".into());
                }
                min_distance = Some(d);
            }
            "limits" if limits.is_none() => limits = Some(read_limits(r, inner)?),
            _ => r.skip(inner)?,
        }
    }
    Ok(ScenarioSpec {
        family: family.ok_or("scenario: missing family")?,
        k: k.ok_or("scenario: missing k")?,
        occupancy: occupancy.unwrap_or(1.0),
        placement: placement.ok_or("scenario: missing placement")?,
        schedule: schedule.ok_or("scenario: missing schedule")?,
        dyn_ring,
        crashes: crashes.unwrap_or(0),
        min_distance: min_distance.unwrap_or(1),
        algorithm: algorithm.ok_or("scenario: missing algorithm")?,
        params: params.unwrap_or_default(),
        limits: limits.unwrap_or_default(),
    })
}

/// The `params` value: every entry of an object, in order, a later key
/// replacing an earlier one; a value that is not an object means none.
fn read_params(r: &mut Reader, depth: usize) -> Result<Params, String> {
    let mut params = Params::new();
    if r.peek() != Some(b'{') {
        r.scalar(depth)?;
        return Ok(params);
    }
    r.begin_object(depth)?;
    while let Some(key) = r.next_key()? {
        let value = r.scalar(depth + 1)?;
        let text = value.as_str().ok_or("scenario: param values are strings")?;
        let value =
            ParamValue::parse(text).ok_or_else(|| format!("scenario: bad param value '{text}'"))?;
        params = params.set(&key, value);
    }
    Ok(params)
}

/// The `limits` value: the first `max_rounds` and `max_steps` of an
/// object, each kept only if it is a non-negative integer; a value that is
/// not an object means no limits.
fn read_limits(r: &mut Reader, depth: usize) -> Result<Limits, String> {
    if r.peek() != Some(b'{') {
        r.scalar(depth)?;
        return Ok(Limits::default());
    }
    r.begin_object(depth)?;
    let (mut rounds, mut steps) = (None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "max_rounds" if rounds.is_none() => rounds = Some(r.scalar(depth + 1)?.as_u64()),
            "max_steps" if steps.is_none() => steps = Some(r.scalar(depth + 1)?.as_u64()),
            _ => r.skip(depth + 1)?,
        }
    }
    Ok(Limits {
        max_rounds: rounds.flatten(),
        max_steps: steps.flatten(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_core::scenario::{Limits, ParamValue};

    #[test]
    fn scenario_json_round_trips_byte_identically() {
        let specs = [
            ScenarioSpec::new(GraphFamily::RandomTree, 64, "probe-dfs"),
            ScenarioSpec::new(GraphFamily::ErdosRenyi { avg_degree: 6.0 }, 32, "ks-dfs")
                .with_placement(Placement::Clustered { clusters: 4 })
                .with_schedule(Schedule::AsyncRandom { prob: 0.7 })
                .with_occupancy(0.5),
            ScenarioSpec::new(GraphFamily::Star, 96, "sync-seeker")
                .with_param("wait", ParamValue::U64(6))
                .with_param("probers", ParamValue::U64(32))
                .with_limits(Limits {
                    max_rounds: Some(10_000),
                    max_steps: Some(20_000),
                }),
            ScenarioSpec::new(GraphFamily::Ring, 24, "probe-dfs").with_dynamic_ring(1),
            ScenarioSpec::new(GraphFamily::Ring, 16, "random-walk")
                .with_occupancy(0.5)
                .with_placement(Placement::ScatteredUniform)
                .with_dynamic_ring(2)
                .with_crashes(3),
            ScenarioSpec::new(GraphFamily::Ring, 12, "spacer")
                .with_occupancy(0.25)
                .with_param("gap", ParamValue::U64(3))
                .with_min_distance(3),
        ];
        for spec in specs {
            let text = encode_scenario(&spec);
            let back = decode_scenario(&text).unwrap();
            assert_eq!(back, spec);
            assert_eq!(
                encode_scenario(&back),
                text,
                "spec → JSON → spec → JSON must be byte-identical"
            );
        }
    }

    #[test]
    fn the_wire_form_keeps_its_bytes() {
        let spec = ScenarioSpec::new(GraphFamily::Ring, 16, "random-walk")
            .with_occupancy(0.5)
            .with_placement(Placement::Clustered { clusters: 4 })
            .with_schedule(Schedule::AsyncRandom { prob: 0.7 })
            .with_dynamic_ring(2)
            .with_crashes(3)
            .with_param("probers", ParamValue::U64(32))
            .with_param("bias", ParamValue::F64(1.0))
            .with_min_distance(2)
            .with_limits(Limits {
                max_rounds: Some(10_000),
                max_steps: None,
            });
        assert_eq!(
            encode_scenario(&spec),
            r#"{"family":"ring","k":16,"occupancy":"0.5","placement":"cluster4","schedule":"async-rand0.7","dyn_ring":2,"crashes":3,"algorithm":"random-walk","params":{"bias":"1.0","probers":"32"},"min_distance":2,"limits":{"max_rounds":10000}}"#
        );
    }

    #[test]
    fn defaults_are_omitted_from_the_wire_form() {
        let spec = ScenarioSpec::new(GraphFamily::Line, 8, "ks-dfs");
        let text = encode_scenario(&spec);
        assert!(!text.contains("occupancy"));
        assert!(!text.contains("params"));
        assert!(!text.contains("limits"));
    }

    #[test]
    fn keys_in_any_order_duplicates_and_unknown_keys_decode_as_the_tree_did() {
        let spec = decode_scenario(
            r#" { "algorithm" : "ks-dfs", "k": 8, "x": [{"y": null}], "schedule": "sync",
                 "family": "line", "fami\u006cy": "warp", "placement": "rooted",
                 "params": {"wait": "6", "wait": "7"}, "limits": {"max_rounds": "9",
                 "max_rounds": 5, "max_steps": 12}, "occupancy": 0.25 } "#,
        )
        .unwrap();
        let expected = ScenarioSpec::new(GraphFamily::Line, 8, "ks-dfs")
            .with_param("wait", ParamValue::U64(7))
            .with_limits(Limits {
                max_rounds: None,
                max_steps: Some(12),
            })
            .with_occupancy(0.25);
        assert_eq!(spec, expected);
        // Non-object params and limits mean none.
        let spec = decode_scenario(
            r#"{"family":"line","k":8,"placement":"rooted","schedule":"sync","algorithm":"ks-dfs","params":3,"limits":"x"}"#,
        )
        .unwrap();
        assert_eq!(spec, ScenarioSpec::new(GraphFamily::Line, 8, "ks-dfs"));
    }

    #[test]
    fn malformed_scenarios_error_instead_of_panicking() {
        for bad in [
            r#"{"k":8}"#,
            r#"{"family":"warp","k":8,"placement":"rooted","schedule":"sync","algorithm":"ks-dfs"}"#,
            r#"{"family":"line","k":8,"placement":"x","schedule":"sync","algorithm":"ks-dfs"}"#,
            r#"{"family":"line","k":8,"placement":"rooted","schedule":"x","algorithm":"ks-dfs"}"#,
            r#"{"family":"line","k":8,"occupancy":"0.70","placement":"rooted","schedule":"sync","algorithm":"ks-dfs"}"#,
            // Fault keys at their "absent" value are non-canonical.
            r#"{"family":"ring","k":8,"placement":"rooted","schedule":"sync","dyn_ring":0,"algorithm":"ks-dfs"}"#,
            r#"{"family":"ring","k":8,"placement":"rooted","schedule":"sync","crashes":0,"algorithm":"ks-dfs"}"#,
            r#"{"family":"ring","k":8,"placement":"rooted","schedule":"sync","algorithm":"ks-dfs","min_distance":1}"#,
            r#"{"family":"ring","k":8,"placement":"rooted","schedule":"sync","dyn_ring":"x","algorithm":"ks-dfs"}"#,
        ] {
            assert!(decode_scenario(bad).is_err(), "{bad}");
        }
    }
}
