//! What one run reports: the correctness tally, the metrics, and the
//! statistic the metrics are taken with.

/// Operations attempted and failed. Every trial, job, request and output
/// check is one attempt; anything refused, failed, undispersed or
/// mismatched is one failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Count one attempt; `what` names it in the log if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Count an operation that returned an error.
    pub fn check_ok<T>(&mut self, result: Result<T, String>, what: &str) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }

    /// Share of attempts that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.values.iter()
    }
}

/// Print the failures to stderr and the result object as the last line
/// of stdout.
pub fn print(checks: &Checks, metrics: &Metrics) {
    for f in &checks.failures {
        eprintln!("dispbench: FAILED {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // NaN and infinities have no JSON spelling; a metric the run
            // could not measure reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
}

/// The arithmetic mean; 0 when empty. The per-run statistic of the
/// single-threaded `trials-*` workloads: the host's speed moves between
/// phases, and a mean moves smoothly with the share of the run spent in
/// each, where a median or a quartile jumps between them
/// (`dispbench/STEADINESS.md` has the numbers).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q` quantile (0 ≤ q ≤ 1) by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted.get(rank).copied().unwrap_or(0.0)
}

/// The per-run statistic of the `campaign-micro` and `serve-jobs` units
/// that hand work between threads: the lower quartile. Every handoff waits
/// for a vCPU to wake, and on a shared host the share of those waits the
/// hypervisor stretches (counted as steal time) follows the host's load, so
/// the slow side of a run's distribution moves with it; the lower quartile
/// moves least (`dispbench/STEADINESS.md`).
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// The median, for `setup_s`: a run repeats its set-up, and the median
/// passes over the few repetitions a thread start or a page fault slowed.
/// Also for the `campaign-micro` warm call, which has nothing to execute
/// and so runs on the calling thread: from one pass to the next it lands
/// in a fast (~3.5 ms) or a slow (~5.5 ms) state of the host, and a
/// quartile jumps between the two as their shares move, where the median
/// stays in the larger one (`dispbench/STEADINESS.md`).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
