//! # am-obs — zero-dependency observability for the simulators
//!
//! Every experiment in this repo is a discrete-event Monte-Carlo run, and
//! until this crate existed the only window into one was its final JSON
//! table. `am-obs` is the measurement layer the ROADMAP's "as fast as the
//! hardware allows" goal needs: before a perf PR can prove anything, the
//! baseline has to be measurable.
//!
//! Four facilities, all behind one global registry:
//!
//! * **Spans** ([`span`](fn@span), [`record_sim_span`]) — hierarchical
//!   RAII timers. Wall-clock spans nest through a thread-local stack
//!   (`"mp/append"` inside `"experiment/e4"` aggregates as
//!   `"experiment/e4/mp/append"`); simulated-time spans are recorded
//!   explicitly with their sim-clock endpoints. Both aggregate into per-path count/total/min/max/p50/p99
//!   ([`SpanStats`]).
//! * **Counters** ([`counter`], [`static_counter!`]) — named atomics
//!   behind a registry; handles are cheap to clone and cache.
//! * **Events** ([`event`]) — a bounded ring buffer of structured
//!   `(sim-time, node, kind, detail)` records. The ring drops oldest
//!   entries past its capacity, so long runs stay bounded.
//! * **Trace + manifest export** — the ring and span records render as
//!   Chrome-trace JSON ([`chrome_trace_json`], [`export_chrome_trace`])
//!   loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev),
//!   and [`RunManifest`] writes a per-run `manifest.json` (seed,
//!   experiment ids, durations, event counts, output paths).
//!
//! ## Cost model
//!
//! The whole crate is gated on one `AtomicBool`: when disabled (the
//! default for library consumers; the experiment binary enables it unless
//! `--no-obs` is passed) every instrumentation call is a single relaxed
//! atomic load and an early return — the `bench_obs` benchmark pins the
//! overhead on the E4 hot loop below 5%. When enabled, counters are one
//! atomic add; spans and events take a short mutex critical section.
//!
//! ```
//! am_obs::set_enabled(true);
//! am_obs::reset();
//! {
//!     let _outer = am_obs::span("demo");
//!     let _inner = am_obs::span("step"); // aggregates as "demo/step"
//! }
//! am_obs::counter("demo.widgets").add(3);
//! am_obs::record_sim_span("net/flight", 2, 1_000, 5_000);
//! let stats = am_obs::span_stats();
//! assert!(stats.iter().any(|(path, s)| path == "demo/step" && s.count == 1));
//! let trace = am_obs::chrome_trace_json();
//! assert!(trace.contains("\"traceEvents\""));
//! am_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod manifest;
pub mod metrics;
mod registry;
pub mod span;
pub mod trace;

pub use events::{event, event_counts, events_dropped, events_recorded, set_ring_capacity};
pub use manifest::{ExperimentRecord, RunManifest};
pub use metrics::{counter, counter_values, Counter};
pub use span::{record_sim_span, span, span_stats, SpanGuard, SpanStats};
pub use trace::{chrome_trace_json, export_chrome_trace};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the whole subsystem on or off. Off (the default) reduces every
/// instrumentation call to one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every aggregate: span stats, counter values (handles stay
/// live and simply read zero), event counts, and the trace
/// ring. Also restarts the wall-clock epoch that trace timestamps are
/// relative to. Call between runs that must not see each other's data.
pub fn reset() {
    registry::reset();
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// The registry is global, so tests that enable/reset it must not
    /// interleave. Every obs test takes this lock first.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let _l = test_lock::hold();
        set_enabled(false);
        reset();
        {
            let _g = span("never");
        }
        counter("never.counter").inc();
        event("never/event", 0, 100, || "detail".into());
        record_sim_span("never/sim", 0, 0, 10);
        assert!(span_stats().is_empty());
        assert!(counter_values().iter().all(|(_, v)| *v == 0));
        assert_eq!(events_recorded(), 0);
    }

    #[test]
    fn enabled_records_and_reset_clears() {
        let _l = test_lock::hold();
        set_enabled(true);
        reset();
        {
            let _g = span("outer");
            let _h = span("inner");
        }
        counter("t.count").add(2);
        event("t/ev", 1, 50, || "x".into());
        assert!(span_stats().iter().any(|(p, _)| p == "outer/inner"));
        assert!(counter_values().contains(&("t.count".to_string(), 2)));
        assert_eq!(events_recorded(), 1);
        reset();
        assert!(span_stats().is_empty());
        assert!(counter_values().iter().all(|(_, v)| *v == 0));
        assert_eq!(events_recorded(), 0);
        set_enabled(false);
    }
}
