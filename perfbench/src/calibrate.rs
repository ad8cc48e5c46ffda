//! Machine-speed calibration.
//!
//! On a shared host the same pass can take 50% longer from one minute to
//! the next while the code stays the same. So a run times a fixed kernel
//! that uses only the standard library (string formatting, sorting,
//! hashing, a B-tree: the allocation and pointer-chasing mix of URL and
//! HTML handling) right before and right after every set-up and every
//! pass, and reports each at reference speed: scaled by how much slower
//! or faster than [`REF_ROUND_NS`] the kernel ran around it. The kernel
//! calls no program code, and a pass's output is checked and freed before
//! the kernel after it runs, so program changes still show in full while
//! host drift largely cancels out. (A set-up's product, which the passes
//! use, is alive while the kernel after it runs.) On eight runs of one `crawl-ingest` seed on a
//! shared 2-vCPU virtual machine, this cut the spread of the runs'
//! medians from 17% to 4% of their median.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel rounds per calibration.
const ROUNDS: u32 = 10;

/// Nanoseconds one kernel round takes at reference speed.
pub const REF_ROUND_NS: f64 = 1_000_000.0;

/// One round of the kernel.
fn round() {
    let mut words: Vec<String> = (0..4_000u64)
        .map(|i| format!("w{:x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    words.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in &words {
        for byte in word.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    let index: BTreeMap<&str, usize> = words
        .iter()
        .enumerate()
        .map(|(i, w)| (w.as_str(), i))
        .collect();
    black_box((hash, index.len()));
}

/// Times the kernel: nanoseconds for [`ROUNDS`] rounds.
pub fn kernel_ns() -> f64 {
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        round();
    }
    t0.elapsed().as_nanos() as f64
}

/// The factor that converts a time measured between two kernel timings,
/// `before_ns` and `after_ns`, into reference-speed time.
pub fn scale(before_ns: f64, after_ns: f64) -> f64 {
    2.0 * REF_ROUND_NS * f64::from(ROUNDS) / (before_ns + after_ns)
}
