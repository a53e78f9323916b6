//! The process-global registry behind every am-obs facility.

use crate::events::Ring;
use crate::span::SpanAgg;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default trace-ring capacity: bounded memory (~10 MB worst case) while
/// still holding the tail of a large run.
const DEFAULT_RING_CAP: usize = 131_072;

pub(crate) struct Registry {
    /// Wall-clock base for trace timestamps; restarted by [`reset`].
    pub epoch: Mutex<Instant>,
    pub counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub spans: Mutex<BTreeMap<String, SpanAgg>>,
    /// Total events emitted per kind (including ones the ring evicted).
    pub event_counts: Mutex<BTreeMap<String, u64>>,
    pub ring: Mutex<Ring>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

pub(crate) fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        epoch: Mutex::new(Instant::now()),
        counters: Mutex::new(BTreeMap::new()),
        spans: Mutex::new(BTreeMap::new()),
        event_counts: Mutex::new(BTreeMap::new()),
        ring: Mutex::new(Ring::new(DEFAULT_RING_CAP)),
    })
}

/// Microseconds since the epoch (the timestamp base of wall trace events).
pub(crate) fn wall_us() -> f64 {
    let reg = registry();
    let epoch = *reg.epoch.lock().unwrap_or_else(|e| e.into_inner());
    epoch.elapsed().as_secs_f64() * 1e6
}

pub(crate) fn reset() {
    let reg = registry();
    *reg.epoch.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
    // Counter handles may be cached by callers, so zero the shared cells
    // in place instead of dropping the entries.
    for c in reg
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        c.store(0, Ordering::Relaxed);
    }
    reg.spans.lock().unwrap_or_else(|e| e.into_inner()).clear();
    reg.event_counts
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    reg.ring.lock().unwrap_or_else(|e| e.into_inner()).clear();
}
