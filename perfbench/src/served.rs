//! `served-durable`: a 1-shard, 1-lane `dewrite-serve` with metadata
//! persistence (WAL epoch 64 writes, checkpoint every 8 epochs, no fsync),
//! driven over loopback by an open-loop client at a fixed rate.
//!
//! The server runs in a child process (this binary in `serve` mode, which
//! is `dewrite-serve`'s core with the options fixed here). The client is
//! built from the public `proto` functions and runs on one thread: every
//! request is timed from the moment it was due on the schedule, not from
//! when it was actually sent, so a stall also counts against the requests
//! queued behind it, and the generator's own lateness is reported.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use dewrite_engine::{DigestMode, Replacement};
use dewrite_net::proto::{self, FrameEvent, Hello, Request, Response, NET_VERSION};
use dewrite_net::{Control, NetServer, ServeOptions};
use dewrite_trace::{shard_of_line, TraceOp, TraceRecord};

use crate::engine::{self, shard_reports};
use crate::probe;
use crate::util::{
    median, peak_rss_mb, percentile, set_report_layers, set_sim_metrics, written_bytes,
    written_lines, Outcome, Setups, Trace, LINE,
};
use crate::Args;

/// Open-loop send rate, requests per second: about a fifth of the
/// closed-loop capacity of this server set-up on a 2-core x86-64 host
/// (250k-280k/s). At 100k/s the shared host's slow spells, when the
/// checkpoints alone take a third of the shard's time, pushed the server
/// into a backlog and p50 from 0.15 ms to 0.4-7 ms.
const RATE: f64 = 50_000.0;
const APP: &str = "mcf";
/// Per-connection in-flight window. With `dewrite-serve`'s default of 64
/// and one connection, a host stall leaves a backlog that the server then
/// drains only 64 requests per lane round trip, close to the arrival rate,
/// so it can persist for the rest of the run; a deeper window lets the
/// server catch up. In steady state far fewer requests are in flight.
const WINDOW: u32 = 1024;
/// Set-ups per run, each with a server of its own; `setup_s` is their
/// median.
const SETUPS: usize = 3;
/// Written lines fed to the kernel probes.
const PROBE_LINES: usize = 16_384;
/// Latency percentiles are taken per window of the schedule this long:
/// 5000 requests at `RATE`, 50 of them beyond the 99th percentile.
const WINDOW_NS: u64 = 100_000_000;
/// A data phase that makes no progress for this long has failed.
const STALL: Duration = Duration::from_secs(30);

/// `serve --persist-dir DIR`: run the server until a client asks it to
/// shut down. Prints `listening ADDR` once bound.
pub fn serve_main(argv: &[String]) -> ExitCode {
    let [flag, dir] = argv else {
        eprintln!("usage: perfbench serve --persist-dir DIR");
        return ExitCode::from(2);
    };
    if flag != "--persist-dir" {
        eprintln!("usage: perfbench serve --persist-dir DIR");
        return ExitCode::from(2);
    }
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        threads: 1,
        window: WINDOW,
        persist_dir: Some(PathBuf::from(dir)),
        ..ServeOptions::default()
    };
    let server = match NetServer::bind(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening {}", server.local_addr());
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    if server.join().aborted {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The server child. Dropping it kills and reaps the process.
struct Server {
    child: Child,
    /// Read for the banner, then kept open so that the child never writes
    /// into a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: String,
    reaped: bool,
}

impl Server {
    fn spawn(persist_dir: &Path) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--persist-dir")
            .arg(persist_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
            reaped: false,
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful shutdown and wait, up to [`STALL`], for a clean
    /// exit.
    fn shutdown(mut self, control: &mut Control) -> Result<(), String> {
        control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + STALL;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.reaped = true;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(format!("server still running {STALL:?} after shutdown")),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The data connection's schedule: its encoded frames back to back, where
/// each frame ends, and when each is due (ns after the phase starts).
#[derive(Default)]
struct Plan {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    due_ns: Vec<u64>,
}

/// Encode the trace into the schedule; record `i` is due at `i / RATE`.
/// Returns the plan and the encode time per frame, ns.
fn plan(records: &[TraceRecord], shards: usize) -> (Plan, f64) {
    let mut p = Plan::default();
    let mut seqs = vec![0u64; shards];
    let mut encode_ns = 0u64;
    for (i, rec) in records.iter().enumerate() {
        let shard = shard_of_line(rec.op.addr(), shards);
        let shard_seq = seqs[shard];
        seqs[shard] += 1;
        let req = match &rec.op {
            TraceOp::Write { addr, data } => Request::Write {
                addr: addr.index(),
                shard_seq,
                gap: rec.gap_instructions,
                data: data.clone(),
            },
            TraceOp::Read { addr } => Request::Read {
                addr: addr.index(),
                shard_seq,
                gap: rec.gap_instructions,
            },
        };
        let t = Instant::now();
        let frame = proto::encode_request(&req);
        encode_ns += t.elapsed().as_nanos() as u64;
        p.bytes.extend_from_slice(&frame);
        p.ends.push(p.bytes.len());
        p.due_ns.push((i as f64 * 1e9 / RATE) as u64);
    }
    (p, encode_ns as f64 / records.len().max(1) as f64)
}

/// Read one response frame from a blocking stream.
fn read_response(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> Result<Response, String> {
    let mut tmp = [0u8; 4096];
    loop {
        let step = match proto::next_frame(rbuf).map_err(|e| e.to_string())? {
            FrameEvent::Incomplete => None,
            FrameEvent::Frame { payload, consumed } => {
                Some((proto::decode_response(payload), consumed))
            }
        };
        if let Some((resp, consumed)) = step {
            rbuf.drain(..consumed);
            return resp;
        }
        let n = stream.read(&mut tmp).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        rbuf.extend_from_slice(&tmp[..n]);
    }
}

/// Open a data connection and handshake.
fn connect(addr: &str, hello: &Hello) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .write_all(&proto::encode_request(&Request::Hello(hello.clone())))
        .map_err(|e| format!("hello: {e}"))?;
    match read_response(&mut stream, &mut Vec::new())? {
        Response::HelloOk { .. } => Ok(stream),
        other => Err(format!("handshake refused: {other:?}")),
    }
}

/// What the data phase measured.
#[derive(Default)]
struct PhaseStats {
    /// Due → response latency per request, ns.
    latency_ns: Vec<u32>,
    /// Actual send − due per request, ns.
    lag_ns: Vec<u32>,
    ok: u64,
    errors: u64,
    recv_bytes: u64,
    decode_ns: u64,
    /// Last response, ns after the phase start.
    last_ns: u64,
}

fn as_u32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the client's `ppoll` binding is laid out for 64-bit Linux");

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` of Linux on 64-bit targets.
#[repr(C)]
struct TimeSpec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    /// `ppoll(2)` from the C library the standard library links.
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
}

/// Block until `fd` is readable or `ns` nanoseconds have passed.
fn wait_readable(fd: RawFd, ns: u64) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let timeout = TimeSpec {
        tv_sec: (ns / 1_000_000_000) as i64,
        tv_nsec: (ns % 1_000_000_000) as i64,
    };
    // SAFETY: one valid `pollfd` and a valid timeout, both live for the
    // call; no signal mask. An interrupted or failed wait only returns
    // early, and the caller polls the socket again.
    unsafe {
        ppoll(&mut pfd, 1, &timeout, std::ptr::null());
    }
}

/// The open-loop data phase on one connection, from one thread: send each
/// request when it is due, read responses as they arrive, and between the
/// two sleep in `ppoll` until the next request is due or a response
/// arrives. Each response is timed from its request's due time; each
/// request's lag is its actual send time less its due time.
fn open_loop(mut stream: TcpStream, plan: &Plan, traced: bool) -> Result<PhaseStats, String> {
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("data connection: {e}"))?;
    let fd = stream.as_raw_fd();
    let n = plan.due_ns.len();
    let mut st = PhaseStats {
        latency_ns: Vec::with_capacity(n),
        lag_ns: Vec::with_capacity(n),
        ..PhaseStats::default()
    };
    let mut rbuf: Vec<u8> = Vec::new();
    let mut tmp = vec![0u8; 64 * 1024];
    // Requests released to the socket, and bytes of them written so far.
    let (mut sent, mut written) = (0, 0);
    let mut progress_at = Instant::now();
    let start = Instant::now() + Duration::from_millis(5);
    while st.latency_ns.len() < n {
        let now = start.elapsed().as_nanos() as u64;
        while sent < n && plan.due_ns[sent] <= now {
            st.lag_ns.push(as_u32(now - plan.due_ns[sent]));
            sent += 1;
        }
        let due_bytes = if sent == 0 { 0 } else { plan.ends[sent - 1] };
        if written < due_bytes {
            match stream.write(&plan.bytes[written..due_bytes]) {
                Ok(k) => {
                    written += k;
                    progress_at = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        let k = match stream.read(&mut tmp) {
            Ok(0) => return Err("server closed the connection mid-phase".into()),
            Ok(k) => k,
            Err(e) if e.kind() == ErrorKind::WouldBlock => 0,
            Err(e) => return Err(format!("receive: {e}")),
        };
        if k == 0 {
            if st.latency_ns.len() < sent && progress_at.elapsed() > STALL {
                return Err(format!("no progress for {STALL:?}"));
            }
            if written < due_bytes {
                // The socket's send buffer is full: wait for the server
                // to answer, and so to read.
                wait_readable(fd, 20_000);
            } else if sent < n {
                let now = start.elapsed().as_nanos() as u64;
                wait_readable(fd, plan.due_ns[sent].saturating_sub(now));
            } else {
                wait_readable(fd, 1_000_000);
            }
            continue;
        }
        let at = start.elapsed().as_nanos() as u64;
        progress_at = Instant::now();
        rbuf.extend_from_slice(&tmp[..k]);
        st.recv_bytes += k as u64;
        let mut off = 0;
        loop {
            let t = traced.then(Instant::now);
            let step = match proto::next_frame(&rbuf[off..]).map_err(|e| e.to_string())? {
                FrameEvent::Incomplete => None,
                FrameEvent::Frame { payload, consumed } => {
                    Some((proto::decode_response(payload), consumed))
                }
            };
            if let Some(t) = t {
                st.decode_ns += t.elapsed().as_nanos() as u64;
            }
            let Some((resp, consumed)) = step else { break };
            off += consumed;
            let answered = st.latency_ns.len();
            if answered == sent {
                return Err("response without an outstanding request".into());
            }
            st.latency_ns
                .push(as_u32(at.saturating_sub(plan.due_ns[answered])));
            match resp? {
                Response::WriteOk { .. } | Response::ReadOk { .. } => st.ok += 1,
                Response::Error { .. } => st.errors += 1,
                other => return Err(format!("unexpected data-phase response {other:?}")),
            }
        }
        rbuf.drain(..off);
        st.last_ns = at;
    }
    Ok(st)
}

/// Everything one set-up brings up.
struct Session {
    server: Server,
    control: Control,
    data: TcpStream,
    plan: Plan,
    encode_ns: f64,
    slots_per_shard: u64,
}

fn bring_up(records: &[TraceRecord], hello: &Hello, persist_dir: &Path) -> Result<Session, String> {
    let _ = std::fs::remove_dir_all(persist_dir);
    let server = Server::spawn(persist_dir)?;
    let (control, info) =
        Control::connect(&server.addr, hello).map_err(|e| format!("control connection: {e}"))?;
    let data = connect(&server.addr, hello)?;
    let (plan, encode_ns) = plan(records, info.shards);
    Ok(Session {
        server,
        control,
        data,
        plan,
        encode_ns,
        slots_per_shard: info.slots_per_shard,
    })
}

/// The `p`-th latency percentile of each window of the schedule, and the
/// median over the windows: a rare long stall moves one window, not the
/// run's figure, while the routine checkpoint stalls every window holds
/// still set its tail.
fn windowed_percentile(latency_ns: &[u32], due_ns: &[u64], p: f64) -> f64 {
    let mut per_window = Vec::new();
    let mut from = 0;
    while from < latency_ns.len() {
        let window = due_ns[from] / WINDOW_NS;
        let to = from + due_ns[from..].partition_point(|&d| d / WINDOW_NS == window);
        per_window.push(percentile(&mut latency_ns[from..to].to_vec(), p));
        from = to;
    }
    median(&per_window)
}

/// Highest checkpoint sequence number in a shard store: the number of
/// checkpoints written after the initial one.
fn checkpoints(store: &Path) -> Result<u64, String> {
    let mut max = 0;
    for entry in std::fs::read_dir(store).map_err(|e| format!("{}: {e}", store.display()))? {
        let name = entry.map_err(|e| e.to_string())?.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".dwck"))
        {
            max = max.max(seq.parse::<u64>().map_err(|e| format!("{name}: {e}"))?);
        }
    }
    Ok(max)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let persist_dir = args.work_dir.join("served");
    let ops = (RATE * args.seconds.as_secs_f64()) as usize;
    let mut setups = Setups::default();
    // Trace generation alone, inside each set-up.
    let mut gen_s = Vec::with_capacity(SETUPS);
    let (records, hello, session) = setups.repeat(SETUPS, || {
        let t = Instant::now();
        let trace = Trace::generate(APP, args.seed, ops);
        gen_s.push(t.elapsed().as_secs_f64());
        let hello = Hello {
            version: NET_VERSION,
            line_size: LINE as u32,
            lines: trace.lines,
            expected_writes: trace.writes(),
            cache_policy: Replacement::default().to_wire(),
            digest_mode: DigestMode::default().to_wire(),
            app: APP.into(),
        };
        let records = trace.into_all();
        let session = bring_up(&records, &hello, &persist_dir)?;
        Ok((records, hello, session))
    })?;
    let Session {
        server,
        mut control,
        data,
        plan,
        encode_ns,
        slots_per_shard,
    } = session;
    let mut out = Outcome::default();
    let pid = server.pid();
    let written_before = written_bytes(Some(pid))?;

    let stats = open_loop(data, &plan, args.trace)?;
    let due_ns = plan.due_ns;
    drop(plan.bytes);
    let rss_mb = peak_rss_mb(Some(pid))?;
    let store_written = written_bytes(Some(pid))? - written_before;
    let latency = stats.latency_ns;
    let lag = stats.lag_ns;
    let (ok, errors) = (stats.ok, stats.errors);
    out.attempted = records.len() as u64;
    out.failed = records.len() as u64 - ok;
    out.check(errors == 0, || format!("{errors} typed error responses"));

    // The server's shard reports must equal an in-process run of the same
    // trace, bit for bit, and its tables must scrub clean.
    control.flush().map_err(|e| format!("flush: {e}"))?;
    if let Err(e) = control.scrub() {
        out.failures.push(format!("server scrub: {e}"));
    }
    let served_reports = control.report().map_err(|e| format!("report: {e}"))?;
    server.shutdown(&mut control)?;
    let config = engine::config(hello.lines, hello.expected_writes);
    out.check(config.slots_per_shard == slots_per_shard, || {
        format!(
            "server sized {slots_per_shard} slots per shard, the in-process config {}",
            config.slots_per_shard
        )
    });

    let p50_us = windowed_percentile(&latency, &due_ns, 50.0) / 1e3;
    if args.trace {
        out.set("trace.gen_s", median(&gen_s));
        out.set("net.encode_ns", encode_ns);
        out.set(
            "net.decode_ns",
            stats.decode_ns as f64 / (ok + errors).max(1) as f64,
        );
        out.set("net.errors", errors as f64);
        let lag_ns: f64 = lag.iter().map(|&l| f64::from(l)).sum();
        out.set("bench.sched_lag_us", lag_ns / lag.len().max(1) as f64 / 1e3);
        out.set(
            "persist.checkpoints",
            checkpoints(&persist_dir.join("gen-0000").join("shard-00"))? as f64,
        );
        // Bytes the server wrote, less the responses it sent, per user byte.
        let user_bytes = hello.expected_writes as f64 * LINE as f64;
        out.set(
            "persist.write_amp",
            (store_written - stats.recv_bytes) as f64 / user_bytes,
        );

        // The same trace through one shard with the same persistence, in
        // this process: service time per call and checkpoint time.
        let plain = engine::replay(&config, &records, false, Some(&args.work_dir.join("plain")))?;
        let mut timed =
            engine::replay(&config, &records, true, Some(&args.work_dir.join("timed")))?;
        for (what, r) in [("untimed", &plain), ("timed", &timed)] {
            let text = format!("[{}]", r.ctrl.report(APP).to_json());
            out.check(text == served_reports, || {
                format!("{what} shard replay report differs from the server's")
            });
        }
        let mut checkpoint_ms = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            timed
                .ctrl
                .persist_checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
            checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        out.set("persist.checkpoint_ms", median(&checkpoint_ms));
        timed.set_layers(&mut out);
        out.set("bench.trace_overhead", timed.wall_s / plain.wall_s);
        out.set("net.self_us", p50_us - timed.service_ns() / 1e3);
        probe::kernels(&mut out, &written_lines(&records, PROBE_LINES));
    } else {
        out.set("setup_s", setups.median_s());
        out.set("ops_per_s", ok as f64 / (stats.last_ns as f64 / 1e9));
        out.set("p50_us", p50_us);
        out.set("p99_us", windowed_percentile(&latency, &due_ns, 99.0) / 1e3);
        out.set("rss_mb", rss_mb);
    }
    drop((latency, lag));

    let shadow = dewrite_engine::run(&config, APP, records);
    out.check(shard_reports(&shadow) == served_reports, || {
        "server shard reports differ from the in-process run of the same trace".into()
    });
    set_sim_metrics(&mut out, &[&shadow.merged]);
    set_report_layers(&mut out, &[&shadow.merged]);
    Ok(out)
}
