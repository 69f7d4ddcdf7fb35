//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of percent
//! over minutes, which swamps the differences between two versions of the
//! program. So every run also times a fixed kernel that uses none of the
//! program's code, interleaved with its passes, and scales each host time
//! to a host that runs the kernel at [`REFERENCE_RATE`]. A slower moment
//! slows the passes and the kernel alike, and the scaled times cancel it.

use std::time::{Duration, Instant};

/// Kernel chunks per thread-second of the reference host (a 2-vCPU Xeon VM
/// at a quiet moment). Host times are scaled to this speed.
pub const REFERENCE_RATE: f64 = 13_000.0;

/// One chunk of the kernel: pseudo-random reads and writes over a 256 KiB
/// table plus a small allocation now and then, like the interpreters and
/// the event engine it stands in for.
fn chunk(table: &mut [u64], x: &mut u64) -> u64 {
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let j = (*x as usize) & mask;
        table[j] = table[j].wrapping_add(i);
        acc = acc.wrapping_add(table[(j * 7) & mask]);
        if i % 512 == 0 {
            let scratch = vec![acc; 16];
            acc = acc.wrapping_add(std::hint::black_box(scratch)[3]);
        }
    }
    acc
}

/// Run the kernel on `workers` threads for `time` and return the host's
/// speed relative to the reference host (below 1 when slower).
#[must_use]
pub fn host_speed(workers: usize, time: Duration) -> f64 {
    let (chunks, secs) = std::thread::scope(|s| {
        let threads: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut table = vec![0u64; 1 << 15];
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ w as u64;
                    let t0 = Instant::now();
                    let mut chunks = 0u64;
                    while t0.elapsed() < time {
                        std::hint::black_box(chunk(&mut table, &mut x));
                        chunks += 1;
                    }
                    (chunks, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        threads.into_iter().fold((0, 0.0), |(c, t), h| {
            let (n, s) = h.join().expect("calibration threads do not panic");
            (c + n, t + s)
        })
    });
    chunks as f64 / secs / REFERENCE_RATE
}
