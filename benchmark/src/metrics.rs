//! The metric tables: what `/BENCHMARK.json` declares, in code.
//!
//! A unit test keeps the two in step. `README.md` says what each metric
//! means and which end-to-end metric each per-layer metric should move.

use crate::stats::Better;

/// An end-to-end metric: reported for every workload by the untraced run.
pub struct EndToEnd {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by the traced run, 0 on workloads it does
/// not apply to.
pub struct PerLayer {
    /// `<layer>.<what>`; the layer is the crate (`node` = `am-node`, …).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (for counts that a pure speed-up must not move, the
    /// direction a reduction would move them).
    pub better: Better,
    /// Whether two runs at one seed must agree to the last digit.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact,
    }
}

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: &[PerLayer] = &[
    // am-node, real `Cluster` with a timer pair per request.
    timing("node.handle.append_ns", "ns"),
    timing("node.handle.read_ns", "ns"),
    timing("node.handle.query_ns", "ns"),
    timing("node.handle.finality_ns", "ns"),
    timing("node.handle.append_ns_p50", "ns"),
    timing("node.handle.append_ns_p99", "ns"),
    timing("node.handle.read_ns_p50", "ns"),
    timing("node.handle.read_ns_p99", "ns"),
    // am-node and am-mp, shadow pipeline spans.
    timing("node.mempool.admit_ns", "ns"),
    timing("node.archive.sync_ns", "ns"),
    count("node.archive.synced_msgs", "count"),
    timing("node.archive.snapshot_ns", "ns"),
    timing("node.archive.digest_ns", "ns"),
    timing("node.shadow.residual_share", "ratio"),
    timing("node.runtime.hop_ns_p50", "ns"),
    timing("node.runtime.hop_ns_p99", "ns"),
    higher("node.runtime.burst_req_per_s", "1/s", false),
    timing("mp.append_ns", "ns"),
    timing("mp.read_ns", "ns"),
    count("mp.msgs_per_append", "count"),
    count("mp.msgs_per_read", "count"),
    timing("mp.read_growth", "ratio"),
    // am-net.
    count("net.sim.sent", "count"),
    count("net.sim.delivered", "count"),
    count("net.sim.dropped", "count"),
    count("net.sim.active_links", "count"),
    timing("net.sim.deliver_ns", "ns"),
    timing("net.topology.build_ns", "ns"),
    // am-protocols.
    timing("protocols.trial_ns.timestamp", "ns"),
    timing("protocols.trial_ns.chain", "ns"),
    timing("protocols.trial_ns.dag_longest", "ns"),
    timing("protocols.trial_ns.dag_ghost", "ns"),
    timing("protocols.trial_ns.chain_net", "ns"),
    timing("protocols.trial_ns.dag_net", "ns"),
    timing("protocols.trial_ns.bft", "ns"),
    timing("protocols.trial_ns.bft_net", "ns"),
    timing("protocols.sweep.overhead_share", "ratio"),
    timing("protocols.propagation.on_append_ns", "ns"),
    timing("protocols.propagation.advance_ns", "ns"),
    timing("protocols.propagation.settle_ns", "ns"),
    count("protocols.propagation.repair_pulls", "count"),
    count("protocols.appends_per_trial", "count"),
    // am-poisson.
    count("poisson.grants_per_trial", "count"),
    timing("poisson.grant_ns", "ns"),
    timing("poisson.queue_op_ns", "ns"),
    // am-core.
    timing("core.append_ns", "ns"),
    timing("core.read_ns", "ns"),
    timing("core.linearize_ns_per_block", "ns"),
    timing("core.ghost_pivot_ns_per_block", "ns"),
    timing("core.longest_chain_ns_per_block", "ns"),
    // am-bft.
    timing("bft.interpret_ns_per_block", "ns"),
    timing("bft.observe_ns_per_block", "ns"),
    higher("bft.finalized_share", "ratio", true),
    // am-sched.
    count("sched.search.states", "count"),
    count("sched.search.transitions", "count"),
    higher("sched.search.fingerprint_hits", "count", true),
    higher("sched.search.sleep_skipped", "count", true),
    higher("sched.search.symmetry_folds", "count", true),
    timing("sched.search.ns_per_state", "ns"),
    timing("sched.nonforking.ns_per_state", "ns"),
    timing("sched.successors_ns", "ns"),
    timing("sched.canon_ns", "ns"),
    timing("sched.fingerprint_ns", "ns"),
    higher("sched.dedup_ratio", "ratio", true),
    // am-obs, disabled (the library default).
    timing("obs.disabled_span_ns", "ns"),
    timing("obs.disabled_counter_ns", "ns"),
    // The harness and the machine.
    count("alloc.count_per_op", "count"),
    count("alloc.bytes_per_op", "B"),
    count("alloc.peak_heap_mb", "MiB"),
    timing("trace.overhead_share", "ratio"),
    timing("machine.timer_ns", "ns"),
    timing("machine.calib_spin_ns", "ns"),
];

/// The per-layer values of one traced run, all 0 until set.
pub struct Layers {
    values: Vec<f64>,
}

impl Layers {
    /// Every declared metric at 0.
    pub fn new() -> Layers {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared in metrics.rs"))
    }

    /// Sets a declared metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Layers::index(name)] = value;
    }

    /// Reads a declared metric.
    pub fn get(&self, name: &str) -> f64 {
        self.values[Layers::index(name)]
    }

    /// `(declaration, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static PerLayer, f64)> + '_ {
        PER_LAYER.iter().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} array");
        };
        let field = |v: &Value, k: &str| match v.get(k) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{key} entry without a string {k}: {other:?}"),
        };
        items
            .iter()
            .map(|v| (field(v, "name"), field(v, "unit"), field(v, "better")))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let Some(Value::Array(items)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, m) in items.iter().zip(&END_TO_END) {
            assert_eq!(
                item.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| match w.get("name") {
                Some(Value::String(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        assert!(PER_LAYER.len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Layers::new().set("node.handle.typo_ns", 1.0);
    }
}
