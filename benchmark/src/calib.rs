//! The calibration kernel: fixed work, owned by the harness, run between
//! slices of every workload's timed section.
//!
//! On a shared two-vCPU VM the speed of the machine itself moves in phases
//! that last from milliseconds to minutes (sibling-thread contention,
//! frequency, cache pressure from other tenants): identical repetitions of
//! a workload differ by 20–40 % in wall time, and both the fastest and the
//! median repetition of a ten-second run spread by up to 24 % over ten runs
//! (README.md, "Noise notes"). The kernel below is slowed by the same
//! phases. Sampling it inside the timed section, at the workload's natural
//! boundaries, gives every repetition a measurement of the machine it
//! actually ran on; `ops_per_s` is reported per *calibrated* second — wall
//! time scaled by [`REFERENCE_NS`] ÷ the kernel time the repetition saw —
//! which brings the run-to-run spread down to 1–9 %. The raw wall-clock
//! figure is kept beside it in `result.json`.

use crate::alloc;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time of one sample on the machine the harness was written on, in
/// a quiet phase. Only a scale: it makes a calibrated second about one
/// second of that machine. Changing it rescales every `ops_per_s` ever
/// recorded, so it must not change.
pub const REFERENCE_NS: f64 = 1_000_000.0;

/// Runs the kernel once, allocator statistics frozen, and returns its time
/// in nanoseconds. Two halves of about equal weight: a dependent
/// multiply–xorshift chain (core speed) and small-box churn through the
/// allocator (what the libraries do most). A pointer chase over 8 MiB was
/// tried as a third half and made every workload's spread worse: DRAM
/// latency noise here is not correlated with what slows the workloads.
pub fn sample() -> u64 {
    alloc::uncounted(|| {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..200_000u64 {
            x = (x ^ (x >> 29))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .wrapping_add(i);
        }
        black_box(x);
        let mut boxes: Vec<Box<[u64; 4]>> = Vec::new();
        for i in 0..20_000u64 {
            boxes.push(Box::new([i; 4]));
            if i % 3 == 0 {
                let k = (i as usize * 7) % boxes.len();
                boxes.swap_remove(k);
            }
        }
        black_box(&boxes);
        drop(boxes);
        t.elapsed().as_nanos() as u64
    })
}
