//! The coordinator↔worker wire protocol.
//!
//! Four POST endpoints under `/internal/*`, all JSON, all carried by the
//! same hand-rolled HTTP layer the public API uses:
//!
//! - **lease** — a worker asks for work; the coordinator answers with a
//!   batch assignment, "idle, retry later", or "draining".
//! - **heartbeat** — the holder of a lease extends it; an `ok: false`
//!   answer means the lease expired and was requeued, so the worker must
//!   abandon the batch.
//! - **reconcile** — before uploading, the worker advertises an FNV digest
//!   per slot it already holds; the coordinator answers with the slot
//!   indexes it is missing (and cross-checks digests of slots it does
//!   hold — a mismatch is a determinism violation and fails the job).
//! - **complete** — the worker uploads the missing records as a chunked
//!   JSONL body: one header line, then a `{slot, wall_micros, cached}`
//!   meta line followed by the *raw record line* per trial. Shipping the
//!   original bytes (never a re-serialization) is what makes the
//!   byte-identity guarantee compositional.
//!
//! Trial seeds are uniform 64-bit values, so every `u64` on the wire uses
//! the store's lossless hex encoding ([`Json::from_u64_lossless`]).

use disp_analysis::json::Json;
use disp_analysis::TrialRecord;
use disp_rng::fnv1a;

/// One trial slot of a batch: everything a worker needs to execute the
/// trial (and everything the cache needs to address it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSpec {
    /// Canonical scenario label.
    pub label: String,
    /// Repetition index within the grid point.
    pub rep: usize,
    /// The derived trial seed.
    pub seed: u64,
    /// The submitting grid's advertised repetition count (not content,
    /// but part of the record bytes — workers must produce records that
    /// read exactly as the submitting grid's offline run would).
    pub repetitions: usize,
}

impl SlotSpec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("rep".into(), Json::Num(self.rep as f64)),
            ("seed".into(), Json::from_u64_lossless(self.seed)),
            ("repetitions".into(), Json::Num(self.repetitions as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<SlotSpec, String> {
        Ok(SlotSpec {
            label: str_field(v, "label")?.to_string(),
            rep: usize_field(v, "rep")?,
            seed: u64_field(v, "seed")?,
            repetitions: usize_field(v, "repetitions")?,
        })
    }
}

/// A leased batch: a contiguous run of grid slots plus the lease terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAssignment {
    /// Job id (`r0`, `r1`, … as issued by `POST /runs`).
    pub job: String,
    /// Batch index within the job's shard plan.
    pub batch: u64,
    /// Lease time-to-live; the worker must heartbeat well within it.
    pub lease_ms: u64,
    /// The trial slots, in shard-plan order.
    pub slots: Vec<SlotSpec>,
}

/// The coordinator's answer to `POST /internal/lease`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseReply {
    /// No work right now; ask again after roughly `retry_ms`.
    Idle {
        /// Suggested poll delay.
        retry_ms: u64,
    },
    /// The coordinator is shutting down; the worker should exit.
    Draining,
    /// A batch to execute.
    Batch(BatchAssignment),
}

impl LeaseReply {
    /// Render as a JSON document.
    pub fn encode(&self) -> String {
        let v = match self {
            LeaseReply::Idle { retry_ms } => Json::Obj(vec![
                ("status".into(), Json::Str("idle".into())),
                ("retry_ms".into(), Json::Num(*retry_ms as f64)),
            ]),
            LeaseReply::Draining => {
                Json::Obj(vec![("status".into(), Json::Str("draining".into()))])
            }
            LeaseReply::Batch(b) => Json::Obj(vec![
                ("status".into(), Json::Str("batch".into())),
                ("job".into(), Json::Str(b.job.clone())),
                ("batch".into(), Json::Num(b.batch as f64)),
                ("lease_ms".into(), Json::Num(b.lease_ms as f64)),
                (
                    "slots".into(),
                    Json::Arr(b.slots.iter().map(SlotSpec::to_json).collect()),
                ),
            ]),
        };
        v.to_string_compact()
    }

    /// Parse a lease reply.
    pub fn decode(text: &str) -> Result<LeaseReply, String> {
        let v = Json::parse(text)?;
        match str_field(&v, "status")? {
            "idle" => Ok(LeaseReply::Idle {
                retry_ms: u64_field(&v, "retry_ms")?,
            }),
            "draining" => Ok(LeaseReply::Draining),
            "batch" => {
                let slots = match v.get("slots") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(SlotSpec::from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("lease reply: missing slots array".into()),
                };
                Ok(LeaseReply::Batch(BatchAssignment {
                    job: str_field(&v, "job")?.to_string(),
                    batch: u64_field(&v, "batch")?,
                    lease_ms: u64_field(&v, "lease_ms")?,
                    slots,
                }))
            }
            other => Err(format!("lease reply: unknown status {other:?}")),
        }
    }
}

/// The coordinator's answer to `POST /internal/reconcile`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileReply {
    /// The batch is gone (job withdrawn, batch already completed, or a
    /// digest conflict failed the job) — drop the lease, upload nothing.
    pub stale: bool,
    /// Slot indexes the coordinator does not hold; the worker must upload
    /// exactly these.
    pub missing: Vec<usize>,
}

impl ReconcileReply {
    /// Render as a JSON document.
    pub fn encode(&self) -> String {
        Json::Obj(vec![
            ("stale".into(), Json::Bool(self.stale)),
            (
                "missing".into(),
                Json::Arr(self.missing.iter().map(|&i| Json::Num(i as f64)).collect()),
            ),
        ])
        .to_string_compact()
    }

    /// Parse a reconcile reply.
    pub fn decode(text: &str) -> Result<ReconcileReply, String> {
        let v = Json::parse(text)?;
        let stale = v
            .get("stale")
            .and_then(Json::as_bool)
            .ok_or("reconcile reply: missing stale")?;
        let missing = match v.get("missing") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| "reconcile reply: bad slot index".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("reconcile reply: missing missing array".into()),
        };
        Ok(ReconcileReply { stale, missing })
    }
}

/// The coordinator's answer to `POST /internal/complete`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteReply {
    /// The batch was no longer live (already completed by another worker
    /// after a lease expiry, or the job was withdrawn). Nothing was lost —
    /// records are content-addressed — but the worker gets no credit.
    pub stale: bool,
    /// Records accepted into the shared cache tier.
    pub accepted: usize,
}

impl CompleteReply {
    /// Render as a JSON document.
    pub fn encode(&self) -> String {
        Json::Obj(vec![
            ("stale".into(), Json::Bool(self.stale)),
            ("accepted".into(), Json::Num(self.accepted as f64)),
        ])
        .to_string_compact()
    }

    /// Parse a complete reply.
    pub fn decode(text: &str) -> Result<CompleteReply, String> {
        let v = Json::parse(text)?;
        Ok(CompleteReply {
            stale: v
                .get("stale")
                .and_then(Json::as_bool)
                .ok_or("complete reply: missing stale")?,
            accepted: usize_field(&v, "accepted")?,
        })
    }
}

/// One uploaded trial in a complete body.
#[derive(Debug, Clone, PartialEq)]
pub struct Upload {
    /// Slot index within the batch.
    pub slot: usize,
    /// Execution wall time in µs (0 for worker-cache hits).
    pub wall_micros: u64,
    /// Whether the worker served this from its local cache instead of
    /// executing it.
    pub cached: bool,
    /// The raw record line, exactly as the worker holds it.
    pub line: String,
    /// The parsed record (validation + cache insertion on the
    /// coordinator, digesting on the worker).
    pub record: TrialRecord,
}

/// Identity header of a complete body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteHeader {
    /// The uploading worker's id.
    pub worker: String,
    /// Job id.
    pub job: String,
    /// Batch index.
    pub batch: u64,
}

/// A worker's cumulative lifetime counters, piggybacked on lease and
/// heartbeat bodies so the coordinator can render fleet-wide metrics
/// without a dedicated reporting endpoint. Pure observability: the board's
/// scheduling decisions never read these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Trials executed by the worker's engine, ever.
    pub executed: u64,
    /// Trials served from the worker's local cache, ever.
    pub local_hits: u64,
    /// Records uploaded to a coordinator, ever.
    pub uploaded: u64,
    /// Batches completed (non-stale), ever.
    pub batches: u64,
    /// Batches abandoned (lost lease or stale reconcile), ever.
    pub abandoned: u64,
}

impl WorkerStats {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("executed".into(), Json::Num(self.executed as f64)),
            ("local_hits".into(), Json::Num(self.local_hits as f64)),
            ("uploaded".into(), Json::Num(self.uploaded as f64)),
            ("batches".into(), Json::Num(self.batches as f64)),
            ("abandoned".into(), Json::Num(self.abandoned as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<WorkerStats, String> {
        Ok(WorkerStats {
            executed: u64_field(v, "executed")?,
            local_hits: u64_field(v, "local_hits")?,
            uploaded: u64_field(v, "uploaded")?,
            batches: u64_field(v, "batches")?,
            abandoned: u64_field(v, "abandoned")?,
        })
    }
}

/// Render the request body for `POST /internal/lease` / `heartbeat`,
/// optionally piggybacking the worker's cumulative [`WorkerStats`].
pub fn encode_worker_ref(
    worker: &str,
    job: Option<(&str, u64)>,
    stats: Option<WorkerStats>,
) -> String {
    let mut fields = vec![("worker".into(), Json::Str(worker.to_string()))];
    if let Some((job, batch)) = job {
        fields.push(("job".into(), Json::Str(job.to_string())));
        fields.push(("batch".into(), Json::Num(batch as f64)));
    }
    if let Some(stats) = stats {
        fields.push(("stats".into(), stats.to_json()));
    }
    Json::Obj(fields).to_string_compact()
}

/// Parse a `{worker}` or `{worker, job, batch}` request body, plus the
/// optional piggybacked stats snapshot. A body without `stats` (an older
/// worker) decodes to `None` — the field is additive and backward
/// compatible.
#[allow(clippy::type_complexity)]
pub fn decode_worker_ref(
    text: &str,
) -> Result<(String, Option<(String, u64)>, Option<WorkerStats>), String> {
    let v = Json::parse(text)?;
    let worker = str_field(&v, "worker")?.to_string();
    let job = match v.get("job") {
        Some(j) => Some((
            j.as_str().ok_or("bad job id")?.to_string(),
            u64_field(&v, "batch")?,
        )),
        None => None,
    };
    let stats = match v.get("stats") {
        Some(s) => Some(WorkerStats::from_json(s)?),
        None => None,
    };
    Ok((worker, job, stats))
}

/// Render the request body for `POST /internal/reconcile`: one digest per
/// batch slot, `null` where the worker holds nothing.
pub fn encode_reconcile(worker: &str, job: &str, batch: u64, digests: &[Option<u64>]) -> String {
    Json::Obj(vec![
        ("worker".into(), Json::Str(worker.to_string())),
        ("job".into(), Json::Str(job.to_string())),
        ("batch".into(), Json::Num(batch as f64)),
        (
            "digests".into(),
            Json::Arr(
                digests
                    .iter()
                    .map(|d| match d {
                        Some(v) => Json::from_u64_lossless(*v),
                        None => Json::Null,
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string_compact()
}

/// Parse a reconcile request body.
#[allow(clippy::type_complexity)]
pub fn decode_reconcile(text: &str) -> Result<(String, String, u64, Vec<Option<u64>>), String> {
    let v = Json::parse(text)?;
    let digests = match v.get("digests") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|d| match d {
                Json::Null => Ok(None),
                other => other
                    .as_u64_lossless()
                    .map(Some)
                    .ok_or_else(|| "reconcile: bad digest".to_string()),
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("reconcile: missing digests array".into()),
    };
    Ok((
        str_field(&v, "worker")?.to_string(),
        str_field(&v, "job")?.to_string(),
        u64_field(&v, "batch")?,
        digests,
    ))
}

/// Render a complete body: the header line, then `{slot, wall_micros,
/// cached}` meta + raw record line pairs.
pub fn encode_complete_body(header: &CompleteHeader, uploads: &[Upload]) -> String {
    let mut out = Json::Obj(vec![
        ("worker".into(), Json::Str(header.worker.clone())),
        ("job".into(), Json::Str(header.job.clone())),
        ("batch".into(), Json::Num(header.batch as f64)),
    ])
    .to_string_compact();
    out.push('\n');
    for u in uploads {
        out.push_str(
            &Json::Obj(vec![
                ("slot".into(), Json::Num(u.slot as f64)),
                ("wall_micros".into(), Json::Num(u.wall_micros as f64)),
                ("cached".into(), Json::Bool(u.cached)),
            ])
            .to_string_compact(),
        );
        out.push('\n');
        out.push_str(&u.line);
        out.push('\n');
    }
    out
}

/// Parse a complete body back into its header and uploads.
pub fn decode_complete_body(body: &str) -> Result<(CompleteHeader, Vec<Upload>), String> {
    let mut lines = body.lines();
    let head = lines.next().ok_or("complete: empty body")?;
    let v = Json::parse(head)?;
    let header = CompleteHeader {
        worker: str_field(&v, "worker")?.to_string(),
        job: str_field(&v, "job")?.to_string(),
        batch: u64_field(&v, "batch")?,
    };
    let mut uploads = Vec::new();
    while let Some(meta_line) = lines.next() {
        if meta_line.trim().is_empty() {
            continue;
        }
        let meta = Json::parse(meta_line)?;
        let line = lines.next().ok_or("complete: meta line without record")?;
        let record = TrialRecord::from_json_line(line)?;
        uploads.push(Upload {
            slot: usize_field(&meta, "slot")?,
            wall_micros: u64_field(&meta, "wall_micros")?,
            cached: meta
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or("complete: missing cached")?,
            line: line.to_string(),
            record,
        });
    }
    Ok((header, uploads))
}

/// The digest the reconciliation handshake ships: FNV-1a over the exact
/// record line. Two parties that hold byte-identical records — the
/// determinism guarantee — always agree on it.
pub fn line_digest(line: &str) -> u64 {
    fnv1a(line.as_bytes())
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64_lossless)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    u64_field(v, key).map(|n| n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_analysis::ExperimentPoint;
    use disp_core::scenario::{Registry, ScenarioSpec};
    use disp_graph::generators::GraphFamily;

    fn sample_record() -> TrialRecord {
        let point = ExperimentPoint::new(ScenarioSpec::new(GraphFamily::Star, 8, "probe-dfs"), 2);
        point.run_trial(&Registry::builtin(), 0, 0xDEAD_BEEF_CAFE_F00D)
    }

    #[test]
    fn lease_replies_round_trip() {
        for reply in [
            LeaseReply::Idle { retry_ms: 250 },
            LeaseReply::Draining,
            LeaseReply::Batch(BatchAssignment {
                job: "r3".into(),
                batch: 7,
                lease_ms: 10_000,
                slots: vec![SlotSpec {
                    label: "star/k8/unrooted/sync/probe-dfs".into(),
                    rep: 1,
                    seed: u64::MAX - 5, // exercises the lossless encoding
                    repetitions: 4,
                }],
            }),
        ] {
            assert_eq!(LeaseReply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn worker_refs_round_trip_with_and_without_stats() {
        let stats = WorkerStats {
            executed: 12,
            local_hits: 3,
            uploaded: 15,
            batches: 4,
            abandoned: 1,
        };
        let body = encode_worker_ref("w1", Some(("r0", 2)), Some(stats));
        let (worker, job, decoded) = decode_worker_ref(&body).unwrap();
        assert_eq!(worker, "w1");
        assert_eq!(job, Some(("r0".to_string(), 2)));
        assert_eq!(decoded, Some(stats));
        // A stats-less body (an older worker) still decodes.
        let (worker, job, decoded) =
            decode_worker_ref(&encode_worker_ref("w2", None, None)).unwrap();
        assert_eq!(worker, "w2");
        assert_eq!(job, None);
        assert_eq!(decoded, None);
    }

    #[test]
    fn reconcile_round_trips_nulls_and_big_digests() {
        let body = encode_reconcile("w1", "r0", 2, &[Some(u64::MAX), None, Some(7)]);
        let (worker, job, batch, digests) = decode_reconcile(&body).unwrap();
        assert_eq!((worker.as_str(), job.as_str(), batch), ("w1", "r0", 2));
        assert_eq!(digests, vec![Some(u64::MAX), None, Some(7)]);
        assert_eq!(
            ReconcileReply::decode(
                &ReconcileReply {
                    stale: false,
                    missing: vec![0, 2]
                }
                .encode()
            )
            .unwrap()
            .missing,
            vec![0, 2]
        );
    }

    #[test]
    fn complete_bodies_preserve_record_bytes_exactly() {
        let rec = sample_record();
        let line = rec.to_json_line();
        let header = CompleteHeader {
            worker: "w2".into(),
            job: "r1".into(),
            batch: 0,
        };
        let uploads = vec![Upload {
            slot: 3,
            wall_micros: 1234,
            cached: false,
            line: line.clone(),
            record: rec,
        }];
        let body = encode_complete_body(&header, &uploads);
        let (h, parsed) = decode_complete_body(&body).unwrap();
        assert_eq!(h, header);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].line, line);
        assert_eq!(parsed[0].record.to_json_line(), line);
        assert_eq!(line_digest(&parsed[0].line), line_digest(&line));
        assert_eq!(
            CompleteReply::decode(
                &CompleteReply {
                    stale: false,
                    accepted: 1
                }
                .encode()
            )
            .unwrap(),
            CompleteReply {
                stale: false,
                accepted: 1
            }
        );
    }

    #[test]
    fn record_parse_reserialize_is_byte_stable() {
        // The coordinator parses uploaded lines and later re-serializes
        // them from its cache; byte-identity of the cluster path rests on
        // this round trip being exact.
        let rec = sample_record();
        let line = rec.to_json_line();
        let reparsed = TrialRecord::from_json_line(&line).unwrap();
        assert_eq!(reparsed.to_json_line(), line);
    }
}
