//! One repetition of a workload: what it reports and how it is metered.

use crate::alloc;
use crate::calib;
use crate::trace::Tracer;
use crate::Layers;
use serde::Value;
use std::time::Instant;

/// The result of one repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Wall-clock seconds before the first timed call: generating inputs,
    /// a warm-up slice on a throwaway instance, building the system under
    /// test.
    pub setup_wall_s: f64,
    /// Mean calibration kernel time, nanoseconds, over the samples taken
    /// just before and just after the set-up.
    pub setup_calib_ns: f64,
    /// Seconds the fixed work took, no per-operation timers running and
    /// the calibration samples taken in between left out.
    pub run_s: f64,
    /// Mean calibration kernel time, nanoseconds, over the samples taken
    /// just before, inside and just after the timed section.
    pub calib_ns: f64,
    /// Operations attempted (the workload's unit).
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Peak live heap bytes of the repetition, harness-owned inputs
    /// excluded.
    pub heap_peak: usize,
    /// Allocations during the timed section.
    pub allocs: u64,
    /// Bytes requested during the timed section.
    pub alloc_bytes: u64,
    /// What the work computed (tallies, digests, counts), as a JSON object:
    /// identical between repetitions, pinned at the default seed.
    pub outcome: Value,
    /// Invariants of the workload that did not hold.
    pub problems: Vec<String>,
}

impl Rep {
    /// Set-up time in calibrated seconds.
    pub fn setup_s(&self) -> f64 {
        self.setup_wall_s * calib::REFERENCE_NS / self.setup_calib_ns
    }

    /// Operations per wall-clock second of the timed section.
    pub fn raw_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.run_s
    }

    /// Operations per calibrated second: the wall-clock rate scaled by how
    /// much slower than the reference the calibration kernel ran around
    /// and inside this repetition's work.
    pub fn ops_per_s(&self) -> f64 {
        self.raw_ops_per_s() * self.calib_ns / calib::REFERENCE_NS
    }

    /// Peak heap in MiB.
    pub fn heap_peak_mb(&self) -> f64 {
        self.heap_peak as f64 / (1024.0 * 1024.0)
    }
}

/// Clock, calibration and allocator bookkeeping around the phases of a
/// repetition: `start` → generate inputs → `inputs_done` → warm up, build →
/// `setup_done` → timed work, with `calibrate` at its boundaries →
/// `run_done` → checks → `finish`.
pub struct Meter {
    started: Instant,
    base_live: usize,
    input_bytes: usize,
    samples_per_stop: u32,
    setup_wall_s: f64,
    setup_calib_ns: f64,
    resumed: Instant,
    at_run_start: alloc::Snapshot,
    run_s: f64,
    calib_ns: u64,
    calib_samples: u32,
    allocs: u64,
    alloc_bytes: u64,
    heap_peak: usize,
}

impl Meter {
    /// Starts the repetition: peak tracking restarts from the live heap.
    /// Every stop of the clock takes `samples_per_stop` calibration
    /// samples: one where the workload can stop often, more where its
    /// boundaries are few.
    pub fn start(samples_per_stop: u32) -> Meter {
        alloc::reset_peak();
        let snap = alloc::snapshot();
        let before_setup = (0..samples_per_stop).map(|_| calib::sample()).sum::<u64>();
        let now = Instant::now();
        Meter {
            started: now,
            base_live: snap.live,
            input_bytes: 0,
            samples_per_stop,
            setup_wall_s: 0.0,
            setup_calib_ns: before_setup as f64,
            resumed: now,
            at_run_start: snap,
            run_s: 0.0,
            calib_ns: 0,
            calib_samples: 0,
            allocs: 0,
            alloc_bytes: 0,
            heap_peak: 0,
        }
    }

    /// The generated inputs are now live; they belong to the harness, not
    /// to the system under test, and are left out of the heap peak.
    pub fn inputs_done(&mut self) {
        self.input_bytes = alloc::snapshot().live.saturating_sub(self.base_live);
    }

    fn take_samples(&mut self) {
        for _ in 0..self.samples_per_stop {
            self.calib_ns += calib::sample();
        }
        self.calib_samples += self.samples_per_stop;
    }

    /// Set-up ends; after one calibration sample the timed section starts.
    pub fn setup_done(&mut self) {
        self.at_run_start = alloc::snapshot();
        self.setup_wall_s = self.started.elapsed().as_secs_f64();
        self.take_samples();
        self.setup_calib_ns =
            (self.setup_calib_ns + self.calib_ns as f64) / f64::from(2 * self.samples_per_stop);
        self.resumed = Instant::now();
    }

    /// Stops the clock, takes a calibration sample, restarts the clock.
    /// Workloads call it at their natural boundaries (between sweep points,
    /// searches, blocks, every few thousand requests) so that the samples
    /// see the machine the work saw.
    pub fn calibrate(&mut self) {
        self.run_s += self.resumed.elapsed().as_secs_f64();
        self.take_samples();
        self.resumed = Instant::now();
    }

    /// The timed section ends (with one more calibration sample).
    pub fn run_done(&mut self) {
        self.run_s += self.resumed.elapsed().as_secs_f64();
        self.take_samples();
        let snap = alloc::snapshot();
        self.allocs = snap.count - self.at_run_start.count;
        self.alloc_bytes = snap.bytes - self.at_run_start.bytes;
        self.heap_peak = snap
            .peak
            .saturating_sub(self.base_live)
            .saturating_sub(self.input_bytes);
    }

    /// Packs the measurements with the workload's results.
    pub fn finish(self, ops: u64, failed: u64, outcome: Outcome, problems: Vec<String>) -> Rep {
        Rep {
            setup_wall_s: self.setup_wall_s,
            setup_calib_ns: self.setup_calib_ns,
            run_s: self.run_s,
            calib_ns: self.calib_ns as f64 / f64::from(self.calib_samples),
            ops,
            failed,
            heap_peak: self.heap_peak,
            allocs: self.allocs,
            alloc_bytes: self.alloc_bytes,
            outcome: Value::Object(outcome.0),
            problems,
        }
    }
}

/// Builder of a repetition's outcome object.
#[derive(Default)]
pub struct Outcome(Vec<(String, Value)>);

impl Outcome {
    /// Adds an exact count or digest.
    pub fn put(&mut self, key: impl Into<String>, value: u64) {
        self.0.push((key.into(), Value::Number(value.into())));
    }

    /// Adds a label.
    pub fn put_str(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.0.push((key.into(), Value::String(value.into())));
    }
}

/// A workload: fixed, seeded work with a correctness check.
pub trait Workload {
    /// Name, as `BENCHMARK.json` lists it.
    fn name(&self) -> &'static str;

    /// What `ops` (and so `ops_per_s`) counts.
    fn op_unit(&self) -> &'static str;

    /// One untraced repetition.
    fn rep(&self) -> Rep;

    /// One repetition with harness-side spans in `tracer`, followed by the
    /// workload's layer probes; fills the per-layer metrics it owns.
    fn traced(&self, tracer: &mut Tracer, layers: &mut Layers) -> Rep;
}

/// Times `f` over `iters` calls and returns nanoseconds per call.
pub fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}
