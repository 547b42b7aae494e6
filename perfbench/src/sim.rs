//! `sim-mix`: `Simulator::run` of DeWrite (paper config: predictive, PNA,
//! crc32-verify, LRU) over vips, mcf and lbm in turn — dup ratio 0.19 to
//! 0.95. Host time sits in the device model, cache model and scheme; the
//! engine, persistence and network layers are bypassed.

use std::time::Instant;

use dewrite_core::{
    BaseMetrics, DeWrite, DeWriteConfig, EventSink, ReadResult, RunReport, SecureMemory, Simulator,
    SystemConfig, WriteResult,
};
use dewrite_nvm::{LineAddr, NvmDevice, NvmError};

use crate::probe;
use crate::util::{
    median, percentile, set_report_layers, set_sim_metrics, written_lines, Outcome, Setups, Trace,
    KEY,
};
use crate::Args;

const APPS: [&str; 3] = ["vips", "mcf", "lbm"];
/// Measured records per application; one replay of all three takes about a
/// second on a 2-core x86-64 host. Shorter traces make the simulated
/// metrics vary more from seed to seed.
const OPS_PER_APP: usize = 200_000;
/// Set-ups before the traced pass; `trace.gen_s` is their median.
const SETUPS: usize = 3;
/// Written lines per application fed to the kernel probes.
const PROBE_LINES: usize = 4096;

/// A [`SecureMemory`] wrapper that times the calls into the scheme.
///
/// Untraced, it takes one timestamp per call and keeps the gap since the
/// previous call: the host time of one replayed record, harness included.
/// Traced, it brackets each call and sums the time spent inside the scheme.
struct Timed {
    inner: DeWrite,
    traced: bool,
    last: Instant,
    gaps_ns: Vec<u32>,
    write_ns: u64,
    writes: u64,
    read_ns: u64,
    reads: u64,
}

impl Timed {
    fn stamp(&mut self) {
        let now = Instant::now();
        let gap = now.duration_since(self.last).as_nanos();
        self.gaps_ns.push(u32::try_from(gap).unwrap_or(u32::MAX));
        self.last = now;
    }
}

impl SecureMemory for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn write(&mut self, addr: LineAddr, data: &[u8], now_ns: u64) -> Result<WriteResult, NvmError> {
        if !self.traced {
            self.stamp();
            return self.inner.write(addr, data, now_ns);
        }
        let t = Instant::now();
        let r = self.inner.write(addr, data, now_ns);
        self.write_ns += t.elapsed().as_nanos() as u64;
        self.writes += 1;
        r
    }

    fn read(&mut self, addr: LineAddr, now_ns: u64) -> Result<ReadResult, NvmError> {
        if !self.traced {
            self.stamp();
            return self.inner.read(addr, now_ns);
        }
        let t = Instant::now();
        let r = self.inner.read(addr, now_ns);
        self.read_ns += t.elapsed().as_nanos() as u64;
        self.reads += 1;
        r
    }

    fn device(&self) -> &NvmDevice {
        self.inner.device()
    }

    fn base_metrics(&self) -> BaseMetrics {
        self.inner.base_metrics()
    }

    fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.inner.set_event_sink(sink);
    }

    fn take_event_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.inner.take_event_sink()
    }
}

/// One application replayed once.
struct Replay {
    report: RunReport,
    /// `DeWrite::new` time, s.
    new_s: f64,
    /// `Simulator::run` time, s.
    run_s: f64,
    mem: Timed,
}

fn replay(trace: &Trace, traced: bool, gaps_ns: Vec<u32>) -> Result<Replay, String> {
    let config = SystemConfig::for_lines(trace.lines + 64);
    let t = Instant::now();
    let inner = DeWrite::new(config.clone(), DeWriteConfig::paper(), &KEY);
    let new_s = t.elapsed().as_secs_f64();
    let mut mem = Timed {
        inner,
        traced,
        last: Instant::now(),
        gaps_ns,
        write_ns: 0,
        writes: 0,
        read_ns: 0,
        reads: 0,
    };
    let sim = Simulator::new(&config);
    let t = Instant::now();
    mem.last = t;
    let mut report = sim
        .run(
            &mut mem,
            trace.app,
            &trace.warmup,
            trace.records.iter().cloned(),
        )
        .map_err(|e| format!("{}: simulator: {e}", trace.app))?;
    let run_s = t.elapsed().as_secs_f64();
    report.dewrite = Some(mem.inner.dewrite_metrics());
    Ok(Replay {
        report,
        new_s,
        run_s,
        mem,
    })
}

fn report_texts(replays: &[Replay]) -> Vec<String> {
    replays
        .iter()
        .map(|r| r.report.to_json().to_string())
        .collect()
}

/// Replay every application once; reports must match `reference` byte for
/// byte and every scheme must scrub clean.
fn replay_all(
    out: &mut Outcome,
    traces: &[Trace],
    traced: bool,
    gaps_ns: &mut Vec<u32>,
    reference: &mut Option<Vec<String>>,
) -> Result<Vec<Replay>, String> {
    let mut replays = Vec::with_capacity(traces.len());
    for trace in traces {
        let mut r = replay(trace, traced, std::mem::take(gaps_ns))?;
        *gaps_ns = std::mem::take(&mut r.mem.gaps_ns);
        if let Err(e) = r.mem.inner.scrub() {
            out.failures
                .push(format!("{}: scrub after replay: {e}", trace.app));
        }
        out.attempted += (trace.warmup.len() + trace.records.len()) as u64;
        replays.push(r);
    }
    let texts = report_texts(&replays);
    match reference {
        Some(want) => out.check(*want == texts, || {
            "simulated reports differ between replays of the same trace".into()
        }),
        None => *reference = Some(texts),
    }
    Ok(replays)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let generate = || Ok(APPS.map(|app| Trace::generate(app, args.seed, OPS_PER_APP)));
    let mut setups = Setups::default();
    let mut out = Outcome::default();
    let mut reference = None;
    let mut gaps_ns = Vec::new();
    let deadline = Instant::now() + args.seconds;

    if !args.trace {
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        let mut first = None;
        while first.is_none() || Instant::now() < deadline {
            // A set-up before every replay spreads the set-up samples over
            // the whole run.
            let traces = setups.run(generate)?;
            let records: u64 = traces
                .iter()
                .map(|t| (t.warmup.len() + t.records.len()) as u64)
                .sum();
            gaps_ns.clear();
            let replays = replay_all(&mut out, &traces, false, &mut gaps_ns, &mut reference)?;
            let run_s: f64 = replays.iter().map(|r| r.run_s).sum();
            rates.push(records as f64 / run_s);
            p50s.push(percentile(&mut gaps_ns, 50.0) / 1e3);
            p99s.push(percentile(&mut gaps_ns, 99.0) / 1e3);
            first.get_or_insert(replays);
        }
        let first = first.expect("at least one replay");
        let reports: Vec<&RunReport> = first.iter().map(|r| &r.report).collect();
        out.set("setup_s", setups.median_s());
        out.set("ops_per_s", median(&rates));
        out.set("p50_us", median(&p50s));
        out.set("p99_us", median(&p99s));
        out.set("rss_mb", crate::util::peak_rss_mb(None)?);
        set_sim_metrics(&mut out, &reports);
        set_report_layers(&mut out, &reports);
        return Ok(out);
    }

    let traces = setups.repeat(SETUPS, generate)?;
    out.set("trace.gen_s", setups.median_s());
    // Untraced reference pass: the traced reports must equal it, and its
    // wall time is the base of the tracing overhead.
    let untraced = replay_all(&mut out, &traces, false, &mut gaps_ns, &mut reference)?;
    let untraced_s: f64 = untraced.iter().map(|r| r.new_s + r.run_s).sum();
    drop(gaps_ns);

    let mut walls = Vec::new();
    let (mut spans_s, mut wall_s, mut harness_s) = (0.0, 0.0, 0.0);
    let (mut write_ns, mut writes, mut read_ns, mut reads) = (0u64, 0u64, 0u64, 0u64);
    let mut last = None;
    while last.is_none() || Instant::now() < deadline {
        let t = Instant::now();
        let replays = replay_all(&mut out, &traces, true, &mut Vec::new(), &mut reference)?;
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        wall_s += wall;
        for r in &replays {
            // Layer self times: scheme construction, then the calls into
            // the scheme and the harness around them, which together make
            // up `Simulator::run`.
            spans_s += r.new_s + r.run_s;
            harness_s += r.run_s - (r.mem.write_ns + r.mem.read_ns) as f64 / 1e9;
            write_ns += r.mem.write_ns;
            writes += r.mem.writes;
            read_ns += r.mem.read_ns;
            reads += r.mem.reads;
        }
        last = Some(replays);
    }
    let last = last.expect("at least one traced replay");
    out.set("core.write_ns", write_ns as f64 / writes.max(1) as f64);
    out.set("core.read_ns", read_ns as f64 / reads.max(1) as f64);
    out.set("core.harness_self_s", harness_s / walls.len() as f64);
    out.set("bench.trace_overhead", median(&walls) / untraced_s);
    out.closure(spans_s, wall_s);

    let (mut hits, mut misses) = (0u64, 0u64);
    for r in &last {
        let c = r.mem.inner.cache_stats();
        for t in [c.addr_map, c.inverted, c.hash, c.fsm] {
            hits += t.hits;
            misses += t.misses;
        }
    }
    out.set(
        "mem.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("mem.cache_misses", misses as f64);
    let reports: Vec<&RunReport> = last.iter().map(|r| &r.report).collect();
    set_report_layers(&mut out, &reports);

    let lines: Vec<(u64, &[u8])> = traces
        .iter()
        .flat_map(|t| written_lines(&t.records, PROBE_LINES))
        .collect();
    probe::kernels(&mut out, &lines);
    Ok(out)
}
