//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//! ```
//!
//! One run generates its workload's trace from the seed, measures it for
//! about `S` seconds, checks every output, and prints one JSON result line
//! on stdout: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced pass with `--trace 1`. Progress and the
//! host record go to stderr. Any failed check makes the exit code
//! non-zero. `perfbench/README.md` documents the workloads and metrics.

mod engine;
mod probe;
mod served;
mod sim;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dewrite_crypto::Aes128;
use dewrite_hashes::{Crc32c, CrcBackend, StrongKeyed};

use util::{Outcome, KEY};

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
    /// Scratch space for persistence stores; removed at exit.
    work_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// The host facts that decide which kernels run: hardware threads and the
/// dispatch flags of the AES, CRC and strong-digest kernels; and the share
/// of the host's CPU time stolen by the hypervisor since `ticks_at_start`
/// was read, which, when it is not near 0, makes the run's timings measure
/// the host rather than the program.
fn host_record(out: &mut Outcome, ticks_at_start: (u64, u64)) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let aes_ni = Aes128::hardware(&KEY).is_some();
    let sse42_crc = Crc32c::new().backend_kind() == CrcBackend::Sse42;
    let strong_simd = StrongKeyed::new().simd_active();
    let (total, steal) = util::cpu_ticks()?;
    let steal_pct = 100.0 * steal.saturating_sub(ticks_at_start.1) as f64
        / total.saturating_sub(ticks_at_start.0).max(1) as f64;
    eprintln!(
        "host: nproc={nproc} aes_ni={aes_ni} sse42_crc={sse42_crc} strong_simd={strong_simd} \
         steal={steal_pct:.2}%"
    );
    out.set("host.steal_pct", steal_pct);
    out.set("host.nproc", nproc as f64);
    out.set("host.aes_ni", f64::from(u8::from(aes_ni)));
    out.set("host.sse42_crc", f64::from(u8::from(sse42_crc)));
    out.set("host.strong_simd", f64::from(u8::from(strong_simd)));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return served::serve_main(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sim-mix|engine-dup|engine-unique|served-durable \
                 --seed N --seconds S --trace 0|1 --work-dir DIR"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let ticks_at_start = match util::cpu_ticks() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.workload.as_str() {
        "sim-mix" => sim::run(&args),
        "engine-dup" => engine::run(&args, engine::Kind::Dup),
        "engine-unique" => engine::run(&args, engine::Kind::Unique),
        "served-durable" => served::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = host_record(&mut out, ticks_at_start) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    for f in &out.failures {
        eprintln!("FAIL {}: {f}", args.workload);
    }
    let ok = out.failures.is_empty() && out.failed == 0;
    println!("{}", out.to_json_line(args.trace));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
