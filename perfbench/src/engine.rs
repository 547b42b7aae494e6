//! `engine-dup` and `engine-unique`: in-process `engine::run`, one shard,
//! one producer, closed loop, crc32-verify, no persistence.
//!
//! `engine-dup` replays lbm (dup ratio 0.95): nearly every write takes the
//! verify path (digest, probe, verify-read, decrypt, compare), so it is the
//! bypass side for store-path changes. `engine-unique` replays vips (dup
//! ratio 0.19, 2.5 reads per write): most writes take the store path
//! (encrypt, free-line claim, metadata-cache misses), so it is the bypass
//! side for verify-path changes.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dewrite_engine::{EngineConfig, EngineRun, ShardController};
use dewrite_persist::DurableOptions;
use dewrite_trace::{TraceOp, TraceRecord};

use crate::probe;
use crate::util::{
    hist_percentile, median, peak_rss_mb, set_report_layers, set_sim_metrics, written_lines,
    Outcome, Setups, Trace, LINE,
};
use crate::Args;

/// Measured records per engine run, about 1-1.5 s on a 2-core x86-64 host:
/// long enough for lbm's reference counts to saturate, so its hash chains
/// carry the extra candidates a long-running verify path sees, and for the
/// start-up of each run to stay out of the latency tail.
const OPS: usize = 1_000_000;
/// Set-ups before the traced pass; `trace.gen_s` is their median.
const SETUPS: usize = 3;
/// Written lines fed to the kernel probes.
const PROBE_LINES: usize = 16_384;

/// Which side of the write path the workload loads.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// lbm: the verify path.
    Dup,
    /// vips: the store path.
    Unique,
}

/// The one-shard engine configuration every engine-backed workload uses,
/// for a trace over `lines` lines with `writes` writes.
pub fn config(lines: u64, writes: u64) -> EngineConfig {
    let mut config = EngineConfig::for_workload(1, LINE, lines, writes);
    config.scrub = true;
    config.producers = 1;
    config
}

/// The shard reports of a run as one JSON array, shard order — the same
/// text `dewrite-serve` answers a `Report` request with.
pub fn shard_reports(run: &EngineRun) -> String {
    let texts: Vec<String> = run
        .shards
        .iter()
        .map(|s| s.report.to_json().to_string())
        .collect();
    format!("[{}]", texts.join(","))
}

/// Scrub outcome and op count of one engine run, and, given a reference,
/// report identity with the first run of the same trace.
pub fn check_run(
    out: &mut Outcome,
    run: &EngineRun,
    records: usize,
    reference: Option<&mut Option<String>>,
) {
    for s in &run.shards {
        match &s.scrub {
            Some(Ok(_)) => {}
            Some(Err(e)) => out.failures.push(format!("shard {} scrub: {e}", s.shard)),
            None => out
                .failures
                .push(format!("shard {} was not scrubbed", s.shard)),
        }
    }
    out.check(run.ops == records as u64, || {
        format!("engine completed {} of {records} ops", run.ops)
    });
    let Some(reference) = reference else { return };
    let text = shard_reports(run);
    match reference {
        Some(want) => out.check(*want == text, || {
            "engine reports differ between runs of the same trace".into()
        }),
        None => *reference = Some(text),
    }
}

/// The trace seed of repetition `rep` of a run with seed `seed`: the run's
/// own seed first, then seeds derived from it.
fn rep_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_add(rep.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A single-thread replay of a trace through one [`ShardController`].
pub struct ShardReplay {
    pub ctrl: ShardController,
    /// Wall time of the replay loop, s.
    pub wall_s: f64,
    /// Time inside `ShardController::write`, ns (timed replays only).
    pub write_ns: u64,
    pub writes: u64,
    /// Time inside `ShardController::read`, ns (timed replays only).
    pub read_ns: u64,
    pub reads: u64,
}

/// Replay `records` through shard 0 of `config`, set up as `engine::run`
/// sets up its shards, with persistence under `persist` when given.
/// `timed` brackets every call.
pub fn replay(
    config: &EngineConfig,
    records: &[TraceRecord],
    timed: bool,
    persist: Option<&Path>,
) -> Result<ShardReplay, String> {
    let mut ctrl = ShardController::new(0, 1, config.slots_per_shard, LINE, &config.key);
    ctrl.set_fsm_policy(config.fsm);
    ctrl.set_cache_policy(config.cache_policy);
    ctrl.set_digest_mode(config.digest_mode);
    if let Some(dir) = persist {
        let opts = DurableOptions {
            epoch_writes: config.persist_epoch,
            checkpoint_epochs: 8,
            sync: config.persist_sync,
        };
        ctrl.attach_persistence(dir, opts)
            .map_err(|e| format!("attach persistence at {}: {e}", dir.display()))?;
    }
    let mut r = ShardReplay {
        ctrl,
        wall_s: 0.0,
        write_ns: 0,
        writes: 0,
        read_ns: 0,
        reads: 0,
    };
    let start = Instant::now();
    for rec in records {
        let gap = rec.gap_instructions;
        match &rec.op {
            TraceOp::Write { addr, data } if timed => {
                let t = Instant::now();
                black_box(r.ctrl.write(*addr, data, gap));
                r.write_ns += t.elapsed().as_nanos() as u64;
                r.writes += 1;
            }
            TraceOp::Read { addr } if timed => {
                let t = Instant::now();
                black_box(r.ctrl.read(*addr, gap));
                r.read_ns += t.elapsed().as_nanos() as u64;
                r.reads += 1;
            }
            TraceOp::Write { addr, data } => {
                black_box(r.ctrl.write(*addr, data, gap));
            }
            TraceOp::Read { addr } => {
                black_box(r.ctrl.read(*addr, gap));
            }
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    Ok(r)
}

impl ShardReplay {
    /// Mean host ns per operation inside the shard.
    pub fn service_ns(&self) -> f64 {
        (self.write_ns + self.read_ns) as f64 / (self.writes + self.reads).max(1) as f64
    }

    /// `engine.*` call times, `mem.*` and `nvm.fsm_*` counters, and the
    /// closure check of a timed replay.
    pub fn set_layers(&mut self, out: &mut Outcome) {
        out.set(
            "engine.write_ns",
            self.write_ns as f64 / self.writes.max(1) as f64,
        );
        out.set(
            "engine.read_ns",
            self.read_ns as f64 / self.reads.max(1) as f64,
        );
        let cache = self.ctrl.cache_stats();
        out.set("mem.cache_hit_rate", cache.hit_rate());
        out.set("mem.cache_misses", cache.misses as f64);
        let fsm = self.ctrl.fsm_stats();
        out.set("nvm.fsm_claims", fsm.claims as f64);
        out.set("nvm.fsm_scan_steps_per_claim", fsm.scan_steps_per_claim());
        out.closure((self.write_ns + self.read_ns) as f64 / 1e9, self.wall_s);
    }
}

pub fn run(args: &Args, kind: Kind) -> Result<Outcome, String> {
    let app = match kind {
        Kind::Dup => "lbm",
        Kind::Unique => "vips",
    };
    let generate = |seed| {
        let trace = Trace::generate(app, seed, OPS);
        let config = config(trace.lines, trace.writes());
        Ok((trace.into_all(), config))
    };
    let mut setups = Setups::default();
    let mut out = Outcome::default();
    let deadline = Instant::now() + args.seconds;

    if !args.trace {
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        let mut first = None;
        let mut rep = 0;
        while first.is_none() || Instant::now() < deadline {
            // A set-up before every run spreads the set-up samples over the
            // whole run, and hands `engine::run` a trace it may consume.
            // Each repetition replays a trace of its own seed: the latency
            // tail depends on where a trace's costliest stretch of writes
            // falls, so the median over several traces holds still from
            // one run's seed to the next where a single trace's would not.
            let (records, config) = setups.run(|| generate(rep_seed(args.seed, rep)))?;
            rep += 1;
            let len = records.len();
            let run = dewrite_engine::run(&config, app, records);
            check_run(&mut out, &run, len, None);
            out.attempted += len as u64;
            rates.push(run.ops_per_sec());
            let host = run.host_latency();
            p50s.push(hist_percentile(&host, 50.0)? / 1e3);
            p99s.push(hist_percentile(&host, 99.0)? / 1e3);
            first.get_or_insert(run);
        }

        let first = first.expect("at least one engine run");
        out.set("setup_s", setups.median_s());
        out.set("ops_per_s", median(&rates));
        out.set("p50_us", median(&p50s));
        out.set("p99_us", median(&p99s));
        out.set("rss_mb", peak_rss_mb(None)?);
        set_sim_metrics(&mut out, &[&first.merged]);
        set_report_layers(&mut out, &[&first.merged]);
        return Ok(out);
    }

    let (records, config) = setups.repeat(SETUPS, || generate(args.seed))?;
    out.set("trace.gen_s", setups.median_s());
    let mut reference = None;
    // Engine run, untimed and timed shard replays, repeated for the run's
    // time; call times and counters come from the last repetition.
    let (mut run_s, mut plain_s, mut timed_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while last.is_none() || Instant::now() < deadline {
        drop(last.take());
        let run = dewrite_engine::run(&config, app, records.clone());
        check_run(&mut out, &run, records.len(), Some(&mut reference));
        out.attempted += records.len() as u64;
        let plain = replay(&config, &records, false, None)?;
        let timed = replay(&config, &records, true, None)?;
        let want = run.shards[0].report.to_json().to_string();
        for (what, r) in [("untimed", &plain), ("timed", &timed)] {
            out.check(r.ctrl.report(app).to_json().to_string() == want, || {
                format!("{what} shard replay report differs from the engine run")
            });
        }
        run_s.push(run.wall_ns as f64 / 1e9);
        plain_s.push(plain.wall_s);
        timed_s.push(timed.wall_s);
        last = Some((run, timed));
    }
    let (run, mut timed) = last.expect("at least one traced repetition");
    timed.set_layers(&mut out);
    out.set("bench.trace_overhead", median(&timed_s) / median(&plain_s));
    // Both untraced: the threaded engine against one thread doing the same
    // shard work back to back.
    out.set("engine.queue_overhead_s", median(&run_s) - median(&plain_s));
    let shard = &run.shards[0];
    out.set(
        "engine.producer_stall_ms",
        shard.producer_stall_ns as f64 / 1e6,
    );
    out.set("engine.queue_depth_mean", shard.queue_depth_mean);
    set_report_layers(&mut out, &[&run.merged]);
    probe::kernels(&mut out, &written_lines(&records, PROBE_LINES));
    Ok(out)
}
