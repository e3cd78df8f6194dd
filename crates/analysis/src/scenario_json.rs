//! Structured JSON codec for [`ScenarioSpec`] — the second canonical wire
//! form next to the label string.
//!
//! The encoding mirrors the label grammar field for field: labels encode the
//! graph family, placement and schedule; parameter values use their
//! canonical text form (so a `u64` is never confused with an `f64`); and
//! defaulted fields (`occupancy` 1.0, empty params, unlimited limits) are
//! omitted. The emitted key order is fixed, which makes
//! `spec → JSON → spec → JSON` byte-identical.

use crate::json::Json;
use disp_core::scenario::{fmt_f64, Limits, ParamValue, Params, ScenarioSpec, Schedule};
use disp_graph::generators::GraphFamily;
use disp_sim::Placement;

/// Encode a scenario as a structured JSON object.
pub fn scenario_to_json(spec: &ScenarioSpec) -> Json {
    let mut fields = vec![
        ("family".into(), Json::Str(spec.family.label())),
        ("k".into(), Json::Num(spec.k as f64)),
    ];
    if spec.occupancy != 1.0 {
        fields.push(("occupancy".into(), Json::Str(fmt_f64(spec.occupancy))));
    }
    fields.push(("placement".into(), Json::Str(spec.placement.label())));
    fields.push(("schedule".into(), Json::Str(spec.schedule.label())));
    // The fault dimensions mirror the label grammar's canonical omission:
    // no key when the world is static / crash-free / plain-dispersion.
    if let Some(rate) = spec.dyn_ring {
        fields.push(("dyn_ring".into(), Json::Num(rate as f64)));
    }
    if spec.crashes > 0 {
        fields.push(("crashes".into(), Json::Num(spec.crashes as f64)));
    }
    fields.push(("algorithm".into(), Json::Str(spec.algorithm.clone())));
    if !spec.params.is_empty() {
        fields.push((
            "params".into(),
            Json::Obj(
                spec.params
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v.fmt())))
                    .collect(),
            ),
        ));
    }
    if spec.min_distance > 1 {
        fields.push(("min_distance".into(), Json::Num(spec.min_distance as f64)));
    }
    let mut limits = Vec::new();
    if let Some(r) = spec.limits.max_rounds {
        limits.push(("max_rounds".to_string(), Json::Num(r as f64)));
    }
    if let Some(s) = spec.limits.max_steps {
        limits.push(("max_steps".to_string(), Json::Num(s as f64)));
    }
    if !limits.is_empty() {
        fields.push(("limits".into(), Json::Obj(limits)));
    }
    Json::Obj(fields)
}

/// Decode a scenario written by [`scenario_to_json`].
pub fn scenario_from_json(v: &Json) -> Result<ScenarioSpec, String> {
    let family_label = v
        .get("family")
        .and_then(Json::as_str)
        .ok_or("scenario: missing family")?;
    let family = GraphFamily::from_label(family_label)
        .ok_or_else(|| format!("scenario: unknown family '{family_label}'"))?;
    let k = v
        .get("k")
        .and_then(Json::as_u64)
        .ok_or("scenario: missing k")? as usize;
    let occupancy = match v.get("occupancy") {
        None => 1.0,
        Some(Json::Str(s)) => disp_core::scenario::parse_f64(s)
            .ok_or_else(|| format!("scenario: non-canonical occupancy '{s}'"))?,
        Some(other) => other.as_f64().ok_or("scenario: bad occupancy")?,
    };
    let placement_label = v
        .get("placement")
        .and_then(Json::as_str)
        .ok_or("scenario: missing placement")?;
    let placement = Placement::from_label(placement_label)
        .ok_or_else(|| format!("scenario: unknown placement '{placement_label}'"))?;
    let schedule_label = v
        .get("schedule")
        .and_then(Json::as_str)
        .ok_or("scenario: missing schedule")?;
    let schedule = Schedule::from_label(schedule_label)
        .ok_or_else(|| format!("scenario: unknown schedule '{schedule_label}'"))?;
    // Fault keys whose value means "absent" are rejected rather than
    // normalized, keeping spec → JSON → spec → JSON byte-identical.
    let dyn_ring = match v.get("dyn_ring") {
        None => None,
        Some(x) => {
            let rate = x.as_u64().ok_or("scenario: bad dyn_ring")?;
            if rate == 0 {
                return Err("scenario: dyn_ring 0 must be omitted".into());
            }
            Some(rate)
        }
    };
    let crashes = match v.get("crashes") {
        None => 0,
        Some(x) => {
            let f = x.as_u64().ok_or("scenario: bad crashes")?;
            if f == 0 {
                return Err("scenario: crashes 0 must be omitted".into());
            }
            f
        }
    };
    let algorithm = v
        .get("algorithm")
        .and_then(Json::as_str)
        .ok_or("scenario: missing algorithm")?
        .to_string();
    let mut params = Params::new();
    if let Some(Json::Obj(entries)) = v.get("params") {
        for (key, value) in entries {
            let text = value.as_str().ok_or("scenario: param values are strings")?;
            let value = ParamValue::parse(text)
                .ok_or_else(|| format!("scenario: bad param value '{text}'"))?;
            params = params.set(key, value);
        }
    }
    let min_distance = match v.get("min_distance") {
        None => 1,
        Some(x) => {
            let d = x.as_u64().ok_or("scenario: bad min_distance")?;
            if d <= 1 {
                return Err("scenario: min_distance 0/1 must be omitted".into());
            }
            d
        }
    };
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
                .with_schedule(Schedule::AsyncRandom { prob: 0.7, seed: 0 })
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
            let json = scenario_to_json(&spec);
            let text = json.to_string_compact();
            let back = scenario_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
            assert_eq!(
                scenario_to_json(&back).to_string_compact(),
                text,
                "spec → JSON → spec → JSON must be byte-identical"
            );
        }
    }

    #[test]
    fn defaults_are_omitted_from_the_wire_form() {
        let spec = ScenarioSpec::new(GraphFamily::Line, 8, "ks-dfs");
        let text = scenario_to_json(&spec).to_string_compact();
        assert!(!text.contains("occupancy"));
        assert!(!text.contains("params"));
        assert!(!text.contains("limits"));
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
            assert!(
                scenario_from_json(&Json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }
}
