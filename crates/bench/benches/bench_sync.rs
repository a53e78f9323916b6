//! The `sync/*` lanes of the perf ledger (ablation A3): memoized-DFS
//! chain acceptance on the dense reference graphs correct nodes produce,
//! ns per view.

use am_bench::recorder::Recorder;
use am_core::{AppendMemory, MessageBuilder, MsgId, NodeId, Round, Value, GENESIS};
use am_sync::accepted_values;
use std::time::Duration;

/// Builds a full-information t+1-round history for `n` nodes and returns
/// its final view, for the acceptance-rule lanes.
fn history(n: usize, t: u32) -> am_core::MemoryView {
    let mem = AppendMemory::new(n);
    let mut prev_round: Vec<MsgId> = vec![GENESIS];
    for r in 1..=t + 1 {
        let mut this_round = Vec::new();
        for i in 0..n {
            let id = mem
                .append(
                    MessageBuilder::new(NodeId(i as u32), Value::Bit(i % 2 == 0))
                        .parents(prev_round.iter().copied())
                        .round(Round(r)),
                )
                .unwrap();
            this_round.push(id);
        }
        prev_round = this_round;
    }
    mem.read()
}

fn main() {
    let mut rec = Recorder::layer("sync");
    for (n, t) in [(8usize, 2u32), (16, 3), (24, 4)] {
        let view = history(n, t);
        rec.measure_absolute(
            &format!("sync/accept_n{n}_t{t}"),
            1,
            Duration::from_millis(300),
            || accepted_values(&view, t).len(),
        );
    }
    rec.write().unwrap_or_else(|e| panic!("{e}"));
}
