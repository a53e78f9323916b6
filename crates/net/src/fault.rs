//! Composable fault injectors.

use crate::latency::LatencyModel;

/// A scheduled partition: links between `side_a` and its complement are
/// cut during `[from_ns, until_ns)`; at `until_ns` the partition heals.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionSpec {
    /// One side of the cut (the other side is everyone else).
    pub side_a: Vec<usize>,
    /// Simulated time at which the cut starts.
    pub from_ns: u64,
    /// Simulated time at which the cut heals (exclusive).
    pub until_ns: u64,
}

impl PartitionSpec {
    /// Whether a `from → to` send at time `now` crosses the cut.
    pub fn cuts(&self, from: usize, to: usize, now: u64) -> bool {
        if now < self.from_ns || now >= self.until_ns {
            return false;
        }
        // One pass over the member list for both endpoints.
        let (a, b) = self.side_a.iter().fold((false, false), |(a, b), &x| {
            (a | (x == from), b | (x == to))
        });
        a != b
    }
}

/// One fault injector. A [`SimNet`](crate::SimNet) applies its whole list
/// of injectors to every send, in the order given, so faults compose:
/// e.g. a partition plus a background drop probability plus duplication.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Drops each message independently with this probability.
    Drop {
        /// Probability in `[0, 1]`.
        prob: f64,
    },
    /// With this probability, delivers an extra copy of the message after
    /// an additional delay drawn from `extra`.
    Duplicate {
        /// Probability in `[0, 1]`.
        prob: f64,
        /// Extra delay of the duplicate, on top of the link latency.
        extra: LatencyModel,
    },
    /// With this probability, adds an extra delay drawn from `extra` to
    /// the message — overtaking traffic reorders behind it.
    Reorder {
        /// Probability in `[0, 1]`.
        prob: f64,
        /// The added delay.
        extra: LatencyModel,
    },
    /// The node is crashed during `[from_ns, until_ns)`: everything it
    /// sends and everything arriving at it in the window is lost. Use
    /// `until_ns = u64::MAX` for a crash with no recovery.
    Crash {
        /// The crashed node.
        node: usize,
        /// Crash start.
        from_ns: u64,
        /// Recovery time (exclusive).
        until_ns: u64,
    },
    /// A scheduled partition with a heal time.
    Partition(PartitionSpec),
}

impl Fault {
    /// Whether this fault makes `node` crashed at time `now`.
    pub fn crashes(&self, node: usize, now: u64) -> bool {
        match self {
            Fault::Crash {
                node: c,
                from_ns,
                until_ns,
            } => *c == node && (*from_ns..*until_ns).contains(&now),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_cuts_only_across_and_only_in_window() {
        let p = PartitionSpec {
            side_a: vec![0, 1],
            from_ns: 100,
            until_ns: 200,
        };
        assert!(p.cuts(0, 2, 150));
        assert!(p.cuts(2, 1, 150));
        assert!(!p.cuts(0, 1, 150), "same side never cut");
        assert!(!p.cuts(2, 3, 150), "same side never cut");
        assert!(!p.cuts(0, 2, 99), "before the window");
        assert!(!p.cuts(0, 2, 200), "healed at until_ns");
    }

    #[test]
    fn crash_window() {
        let f = Fault::Crash {
            node: 3,
            from_ns: 10,
            until_ns: 20,
        };
        assert!(f.crashes(3, 10));
        assert!(f.crashes(3, 19));
        assert!(!f.crashes(3, 20), "recovered");
        assert!(!f.crashes(2, 15), "other nodes unaffected");
        assert!(!Fault::Drop { prob: 1.0 }.crashes(3, 15));
    }
}
