//! Record-codec byte-identity: every line of
//! `tests/golden/colocation.trials.jsonl` must decode, and re-encode to
//! exactly the same bytes.
//!
//! The golden corpus pins what these trials compute, and CI's co-location
//! smoke reruns them through the engine and store; this test pins the wire
//! format. An encoder that drifts from the recorded lines (a key order, a
//! number form, an omitted default) fails here without running a trial.

use dispersion::analysis::TrialRecord;

#[test]
fn golden_records_decode_and_re_encode_byte_for_byte() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/colocation.trials.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut records = 0;
    for (i, line) in text.lines().enumerate() {
        let record = TrialRecord::from_json_line(line)
            .unwrap_or_else(|e| panic!("line {}: {e}\n{line}", i + 1));
        assert_eq!(record.to_json_line(), line, "line {}", i + 1);
        records += 1;
    }
    assert_eq!(records, 100);
    assert!(text.ends_with('\n'));
}
