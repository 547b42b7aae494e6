//! Kernel probes: the hash and cipher functions the write path calls,
//! timed on the workload's own written lines.

use std::hint::black_box;
use std::time::Instant;

use dewrite_crypto::{CounterModeEngine, LineCounter};
use dewrite_hashes::Crc32;

use crate::util::{median, Outcome, KEY, LINE};

/// Passes over the probe lines; the median pass is reported.
const PASSES: usize = 5;

/// Median ns per line of `f` over `lines`.
fn per_line_ns(lines: &[(u64, &[u8])], mut f: impl FnMut(u64, &[u8])) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            for &(addr, data) in lines {
                f(black_box(addr), black_box(data));
            }
            t.elapsed().as_nanos() as f64 / lines.len() as f64
        })
        .collect();
    median(&passes)
}

/// `hashes.digest_ns` (the path's CRC-32) and `crypto.{en,de}crypt_ns`
/// (counter-mode line encryption) on `lines`.
///
/// # Panics
///
/// Panics if `lines` is empty or holds a line of the wrong size.
pub fn kernels(out: &mut Outcome, lines: &[(u64, &[u8])]) {
    assert!(!lines.is_empty(), "kernel probes need written lines");
    let crc = Crc32::new();
    let ctr = CounterModeEngine::new(&KEY);
    let mut buf = vec![0u8; LINE];
    out.set(
        "hashes.digest_ns",
        per_line_ns(lines, |_, data| {
            black_box(crc.checksum(data));
        }),
    );
    out.set(
        "crypto.encrypt_ns",
        per_line_ns(lines, |addr, data| {
            ctr.encrypt_line_into(data, addr, LineCounter::from_value(1), &mut buf);
            black_box(&buf);
        }),
    );
    out.set(
        "crypto.decrypt_ns",
        per_line_ns(lines, |addr, data| {
            ctr.decrypt_line_into(data, addr, LineCounter::from_value(1), &mut buf);
            black_box(&buf);
        }),
    );
}
