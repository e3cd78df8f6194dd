//! Markdown / CSV / JSON rendering of experiment results.

use crate::experiment::Measurement;
use crate::json::Json;

/// Render rows as a GitHub-flavoured Markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Render rows as CSV (simple escaping: fields containing commas are quoted).
pub fn csv_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let escape = |s: &str| {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = headers
        .iter()
        .map(|h| escape(h))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Format a measurement as the standard harness table row (matches
/// [`measurement_header`]).
pub fn measurement_row(m: &Measurement) -> Vec<String> {
    let s = &m.point.scenario;
    vec![
        s.family.label(),
        s.algorithm.clone(),
        s.placement.label(),
        s.schedule.label(),
        m.k.to_string(),
        m.n.to_string(),
        m.max_degree.to_string(),
        format!("{:.1}", m.time_mean),
        format!("{:.2}", m.time_mean / m.k as f64),
        format!(
            "{:.2}",
            m.time_mean / (m.k as f64 * (m.k as f64 + 2.0).log2())
        ),
        m.peak_memory_bits.to_string(),
        if m.all_dispersed { "yes" } else { "NO" }.to_string(),
    ]
}

/// Encode a measurement as a JSON object — the machine-readable summary
/// format shared by `disp-campaign report --format json` and the
/// `disp-serve` results-summary endpoint, so scripts read one schema no
/// matter which entry point produced it.
pub fn measurement_to_json(m: &Measurement) -> Json {
    let s = &m.point.scenario;
    Json::Obj(vec![
        ("scenario".into(), Json::Str(s.label())),
        ("family".into(), Json::Str(s.family.label())),
        ("algorithm".into(), Json::Str(s.algorithm.clone())),
        ("placement".into(), Json::Str(s.placement.label())),
        ("schedule".into(), Json::Str(s.schedule.label())),
        ("k".into(), Json::Num(m.k as f64)),
        ("n".into(), Json::Num(m.n as f64)),
        ("m".into(), Json::Num(m.m as f64)),
        ("max_degree".into(), Json::Num(m.max_degree as f64)),
        ("repetitions".into(), Json::Num(m.point.repetitions as f64)),
        ("time_mean".into(), Json::Num(m.time_mean)),
        ("time_min".into(), Json::Num(m.time_min)),
        ("time_max".into(), Json::Num(m.time_max)),
        ("moves_mean".into(), Json::Num(m.moves_mean)),
        (
            "peak_memory_bits".into(),
            Json::Num(m.peak_memory_bits as f64),
        ),
        ("all_dispersed".into(), Json::Bool(m.all_dispersed)),
    ])
}

/// Header matching [`measurement_row`].
pub fn measurement_header() -> Vec<&'static str> {
    vec![
        "family",
        "algorithm",
        "placement",
        "schedule",
        "k",
        "n",
        "max_deg",
        "time",
        "time/k",
        "time/(k·log k)",
        "peak_mem_bits",
        "dispersed",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentPoint, TrialRecord};
    use disp_core::scenario::{Registry, ScenarioSpec};
    use disp_graph::generators::GraphFamily;

    /// The measurement of a rooted SYNC `probe-dfs` line of 8 agents over
    /// `reps` seeded trials.
    fn measured(reps: usize) -> Measurement {
        let p = ExperimentPoint::new(ScenarioSpec::new(GraphFamily::Line, 8, "probe-dfs"), reps);
        let registry = Registry::builtin();
        let trials: Vec<TrialRecord> = (0..reps)
            .map(|r| p.run_trial(&registry, r, r as u64))
            .collect();
        Measurement::from_trials(&p, &trials)
    }

    #[test]
    fn measurement_row_matches_header_length() {
        let m = measured(1);
        assert_eq!(measurement_row(&m).len(), measurement_header().len());
    }

    #[test]
    fn markdown_structure() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(t.starts_with("| a | b |\n|---|---|\n"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn measurement_json_is_parseable_and_carries_the_label() {
        let m = measured(2);
        let j = measurement_to_json(&m);
        let text = j.to_string_compact();
        let back = crate::json::Json::parse(&text).unwrap();
        assert_eq!(
            back.get("scenario").unwrap().as_str(),
            Some("line/k8/rooted/sync/probe-dfs")
        );
        assert_eq!(back.get("k").unwrap().as_u64(), Some(8));
        assert_eq!(back.get("repetitions").unwrap().as_u64(), Some(2));
        assert_eq!(back.get("all_dispersed").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let t = csv_table(&["x"], &[vec!["a,b".into()], vec!["say \"hi\"".into()]]);
        assert!(t.contains("\"a,b\""));
        assert!(t.contains("\"say \"\"hi\"\"\""));
    }
}
