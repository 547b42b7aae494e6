//! Shared pieces: trace generation, the metric catalogue, statistics and
//! `/proc` readers.

use std::collections::BTreeMap;
use std::time::Instant;

use dewrite_core::RunReport;
use dewrite_mem::LatencyHistogram;
use dewrite_trace::{app_by_name, TraceGenerator, TraceOp, TraceRecord};

/// Memory-encryption key every layer is keyed with.
pub const KEY: [u8; 16] = *b"dewrite-repro-16";
/// Line size in bytes.
pub const LINE: usize = 256;
/// Working-set lines per application (the `loadgen` default).
const WS_LINES: u64 = 1 << 14;
/// Recurring-content pool per application (the `loadgen` default).
const POOL: usize = 1024;

/// End-to-end metrics (`--trace 0`), name and unit. Must match
/// `BENCHMARK.json`; `run.py` checks the printed set against it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("rss_mb", "MB"),
    ("dedup_rate", "ratio"),
    ("sim_write_ns", "ns"),
    ("sim_ipc", "ipc"),
    ("sim_energy_uj", "uJ"),
];

/// Per-layer metrics (`--trace 1`), name and unit. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_s", "s"),
    ("core.write_ns", "ns"),
    ("core.read_ns", "ns"),
    ("core.harness_self_s", "s"),
    ("core.verify_reads", "count"),
    ("core.verify_useful", "ratio"),
    ("core.pna_skips", "count"),
    ("core.predictor_accuracy", "ratio"),
    ("hashes.digest_ns", "ns"),
    ("crypto.encrypt_ns", "ns"),
    ("crypto.decrypt_ns", "ns"),
    ("crypto.line_ops", "count"),
    ("mem.cache_hit_rate", "ratio"),
    ("mem.cache_misses", "count"),
    ("nvm.fsm_claims", "count"),
    ("nvm.fsm_scan_steps_per_claim", "steps"),
    ("nvm.data_writes", "count"),
    ("engine.write_ns", "ns"),
    ("engine.read_ns", "ns"),
    ("engine.queue_overhead_s", "s"),
    ("engine.producer_stall_ms", "ms"),
    ("engine.queue_depth_mean", "count"),
    ("persist.checkpoints", "count"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.write_amp", "ratio"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("net.self_us", "us"),
    ("net.errors", "count"),
    ("bench.sched_lag_us", "us"),
    ("bench.trace_overhead", "ratio"),
    ("bench.closure_gap_pct", "%"),
    ("host.nproc", "count"),
    ("host.aes_ni", "flag"),
    ("host.sse42_crc", "flag"),
    ("host.strong_simd", "flag"),
    ("host.steal_pct", "%"),
];

/// Largest share of the traced wall time the layer self times may leave
/// unaccounted before the closure check fails, percent.
pub const CLOSURE_TOLERANCE_PCT: f64 = 10.0;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Measured values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Correctness-check failures; any one fails the run.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record `value` under the catalogue name `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name in neither catalogue (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.insert(key, value);
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record the closure check: `spans_s` of layer self time inside a
    /// traced pass of `wall_s`.
    pub fn closure(&mut self, spans_s: f64, wall_s: f64) {
        let gap_pct = 100.0 * (wall_s - spans_s).abs() / wall_s;
        self.set("bench.closure_gap_pct", gap_pct);
        self.check(gap_pct <= CLOSURE_TOLERANCE_PCT, || {
            format!(
                "closure: layer self times {spans_s:.4} s vs traced wall {wall_s:.4} s \
                 ({gap_pct:.2}% > {CLOSURE_TOLERANCE_PCT}%)"
            )
        });
    }

    /// The result line: every metric of the mode's catalogue (bypassed
    /// layers as 0), as one JSON object.
    pub fn to_json_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One application's generated trace.
pub struct Trace {
    /// Application profile name.
    pub app: &'static str,
    /// Pool-seeding records, replayed before the measured window.
    pub warmup: Vec<TraceRecord>,
    /// The measured records.
    pub records: Vec<TraceRecord>,
    /// Line space the trace touches.
    pub lines: u64,
}

impl Trace {
    /// Generate `ops` records of `app` from the run seed.
    ///
    /// # Panics
    ///
    /// Panics if `app` is not a known profile (a benchmark bug).
    pub fn generate(app: &'static str, seed: u64, ops: usize) -> Trace {
        let mut profile = app_by_name(app).expect("known application profile");
        profile.working_set_lines = WS_LINES;
        profile.content_pool_size = POOL;
        // Each application draws its own stream from the run seed.
        let salt = app
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
        let stream = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        let mut gen = TraceGenerator::new(profile, LINE, stream);
        let lines = gen.required_lines();
        let warmup = gen.warmup_records();
        let records = gen.by_ref().take(ops).collect();
        Trace {
            app,
            warmup,
            records,
            lines,
        }
    }

    /// Warmup followed by the measured records: the engine's input.
    pub fn into_all(self) -> Vec<TraceRecord> {
        let mut all = self.warmup;
        all.extend(self.records);
        all
    }

    /// Write records in warmup + measured order.
    pub fn writes(&self) -> u64 {
        self.warmup
            .iter()
            .chain(&self.records)
            .filter(|r| r.op.is_write())
            .count() as u64
    }
}

/// `(address, content)` of up to `max` written lines of `records`, in trace
/// order: the input of the kernel probes.
pub fn written_lines(records: &[TraceRecord], max: usize) -> Vec<(u64, &[u8])> {
    records
        .iter()
        .filter_map(|r| match &r.op {
            TraceOp::Write { addr, data } => Some((addr.index(), data.as_slice())),
            TraceOp::Read { .. } => None,
        })
        .take(max)
        .collect()
}

/// The set-up times of one run; `setup_s` is their median.
#[derive(Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Run and time one set-up.
    pub fn run<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let v = f()?;
        self.0.push(t.elapsed().as_secs_f64());
        Ok(v)
    }

    /// Run and time `n` set-ups back to back; the last result.
    pub fn repeat<T>(
        &mut self,
        n: usize,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..n {
            // Drop the previous result first so set-ups never overlap.
            drop(last.take());
            last = Some(self.run(&mut f)?);
        }
        Ok(last.expect("at least one set-up"))
    }

    /// Median set-up time, s.
    pub fn median_s(&self) -> f64 {
        median(&self.0)
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of exact samples (reorders `samples`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &mut [u32], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    f64::from(*samples.select_nth_unstable(rank - 1).1)
}

/// Bucket bounds of [`LatencyHistogram`]'s documented layout: exact below
/// 16 ns, then 16 linear sub-buckets per power of two.
fn hist_bucket_bounds(bucket: u16) -> (f64, f64) {
    if bucket < 16 {
        return (f64::from(bucket), f64::from(bucket) + 1.0);
    }
    let major = u32::from(bucket) / 16 + 3;
    let sub = u64::from(bucket) % 16;
    let lo = (16 + sub) << (major - 4);
    let width = 1u64 << (major - 4);
    (lo as f64, (lo + width) as f64)
}

/// The `p`-th percentile of a [`LatencyHistogram`], interpolated linearly
/// inside its bucket so that it is not quantised to bucket bounds.
///
/// # Errors
///
/// Fails when the histogram is empty or its layout disagrees with
/// [`hist_bucket_bounds`] (the histogram's own percentile must be the
/// interpolation bucket's lower bound, clamped to the observed range).
pub fn hist_percentile(h: &LatencyHistogram, p: f64) -> Result<f64, String> {
    let count = h.count();
    if count == 0 {
        return Err("empty latency histogram".into());
    }
    let stats = h.stats();
    let (min, max) = (stats.min_ns() as f64, stats.max_ns() as f64);
    let rank = ((p / 100.0 * count as f64).ceil() as u64).max(1);
    if rank >= count {
        return Ok(max);
    }
    let mut seen = 0u64;
    for (bucket, n) in h.bucket_counts() {
        if seen + n >= rank {
            let (lo, hi) = hist_bucket_bounds(bucket);
            let reference = h.percentile_ns(p) as f64;
            if lo.max(min).min(max) != reference {
                return Err(format!(
                    "latency histogram layout changed: bucket {bucket} starts at {lo}, \
                     the histogram says {reference}"
                ));
            }
            let frac = (rank - seen) as f64 / n as f64;
            return Ok((lo + frac * (hi - lo)).clamp(min, max));
        }
        seen += n;
    }
    Ok(max)
}

/// The simulator-clock end-to-end metrics over one or more reports:
/// dedup rate, mean simulated write latency, IPC and energy.
pub fn set_sim_metrics(out: &mut Outcome, reports: &[&RunReport]) {
    let sum = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let writes = sum(&|r| r.base.writes as f64);
    out.set(
        "dedup_rate",
        sum(&|r| r.base.writes_eliminated as f64) / writes,
    );
    out.set(
        "sim_write_ns",
        sum(&|r| r.write_latency.total_ns() as f64) / sum(&|r| r.write_latency.count() as f64),
    );
    out.set(
        "sim_ipc",
        sum(&|r| r.instructions as f64) / sum(&|r| r.cycles),
    );
    out.set("sim_energy_uj", sum(&|r| r.energy.total_pj() as f64) / 1e6);
}

/// The report-derived per-layer counters shared by every workload, and the
/// dedup conservation check `writes_eliminated + nvm_data_writes == writes`.
pub fn set_report_layers(out: &mut Outcome, reports: &[&RunReport]) {
    let mut verify_reads = 0u64;
    let mut eliminated = 0u64;
    let mut pna_skips = 0u64;
    let mut accuracy_weighted = 0.0;
    let mut writes = 0u64;
    for r in reports {
        out.check(
            r.base.writes_eliminated + r.nvm_data_writes == r.base.writes,
            || {
                format!(
                    "{}: writes_eliminated {} + nvm_data_writes {} != writes {}",
                    r.app, r.base.writes_eliminated, r.nvm_data_writes, r.base.writes
                )
            },
        );
        verify_reads += r.base.verify_reads;
        eliminated += r.base.writes_eliminated;
        writes += r.base.writes;
        if let Some(d) = &r.dewrite {
            pna_skips += d.pna_skips;
            accuracy_weighted += d.predictor_accuracy * r.base.writes as f64;
        }
    }
    out.set("core.verify_reads", verify_reads as f64);
    out.set(
        "core.verify_useful",
        if verify_reads == 0 {
            0.0
        } else {
            eliminated as f64 / verify_reads as f64
        },
    );
    out.set("core.pna_skips", pna_skips as f64);
    out.set(
        "core.predictor_accuracy",
        accuracy_weighted / writes.max(1) as f64,
    );
    out.set(
        "crypto.line_ops",
        reports.iter().map(|r| r.base.aes_line_ops).sum::<u64>() as f64,
    );
    out.set(
        "nvm.data_writes",
        reports.iter().map(|r| r.nvm_data_writes).sum::<u64>() as f64,
    );
}

/// One `/proc/<pid>/<file>` field, as the number before any unit.
fn proc_field(pid: Option<u32>, file: &str, field: &str) -> Result<u64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: no {field} field"))
}

/// Peak resident memory of a process (`None` = this one), MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    Ok(proc_field(pid, "status", "VmHWM")? as f64 / 1024.0)
}

/// Bytes a process (`None` = this one) has passed to write-like syscalls.
pub fn written_bytes(pid: Option<u32>) -> Result<u64, String> {
    proc_field(pid, "io", "wchar")
}

/// Host CPU time so far, summed over all CPUs, from `/proc/stat`: all
/// time, and the time the hypervisor ran something else while a vCPU of
/// this machine was ready to run (steal), in clock ticks.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<u64> = text
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .ok_or("/proc/stat: no cpu line")?
        .split_whitespace()
        .map(|v| v.parse().map_err(|e| format!("/proc/stat: {v}: {e}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time.
    let steal = fields.get(7).copied().unwrap_or(0);
    Ok((fields.iter().take(8).sum(), steal))
}
