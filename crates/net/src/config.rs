//! The unified, validating network configuration.
//!
//! One validating builder is the only way to configure (and, through
//! [`NetConfig::build_net`], construct) a `SimNet` — a NaN drop
//! probability or an inverted partition window is rejected instead of
//! silently producing meaningless trials:
//!
//! ```
//! use am_net::{LatencyModel, NetConfig, Topology};
//! let cfg = NetConfig::builder()
//!     .latency(LatencyModel::Constant(50_000_000))
//!     .topology(Topology::Relay { k: 8 })
//!     .fanout(6)
//!     .drop(0.05)
//!     .bandwidth_bps(20_000_000)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.fanout, Some(6));
//! assert!(NetConfig::builder().drop(f64::NAN).build().is_err());
//! ```

use crate::latency::LatencyModel;
use crate::topology::Topology;

/// A validated, `Copy` network configuration: topology, latency classes,
/// fault probabilities, bandwidth queueing, gossip fanout, and stats
/// options. Construct with [`NetConfig::builder`] (validating). Fields are
/// public for reading; hand-building a literal skips validation and is
/// deprecated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetConfig {
    /// Who is wired to whom on the gossip overlay.
    pub topology: Topology,
    /// Base link latency (intra-region on geo topologies).
    pub latency: LatencyModel,
    /// Probability each message is dropped.
    pub drop_prob: f64,
    /// Probability each message is duplicated.
    pub dup_prob: f64,
    /// Probability each message gets an extra (reordering) delay.
    pub reorder_prob: f64,
    /// Optional half/half partition window `(from_ns, until_ns)`.
    pub partition: Option<(u64, u64)>,
    /// Per-link capacity for store-and-forward transmission-delay
    /// queueing; `None` models infinite capacity (latency only).
    pub bandwidth_bps: Option<u64>,
    /// Gossip fanout cap per announcement hop (`None` = full degree).
    pub fanout: Option<usize>,
    /// Whether the per-delivery trace is recorded. Off by default — at
    /// n = 5000 an unbounded record stream dominates memory.
    pub trace: bool,
}

/// Why a [`NetConfigBuilder`] rejected its inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetConfigError {
    /// A probability was NaN or outside `[0, 1]`.
    InvalidProbability {
        /// Which knob (`"drop"`, `"dup"`, `"reorder"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `bandwidth_bps = 0`: a link needs positive capacity.
    ZeroBandwidth,
    /// `fanout = 0`: gossip must reach at least one neighbour.
    ZeroFanout,
    /// A relay/geo degree of 0: the overlay would be edgeless.
    ZeroDegree,
    /// `Geo { regions: 0, .. }`: at least one region is required.
    ZeroRegions,
    /// A partition window with `until_ns < from_ns`.
    InvertedPartition {
        /// Window start.
        from_ns: u64,
        /// Window end (before the start).
        until_ns: u64,
    },
}

impl std::fmt::Display for NetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetConfigError::InvalidProbability { field, value } => {
                write!(f, "{field} probability must be in [0, 1], got {value}")
            }
            NetConfigError::ZeroBandwidth => write!(f, "bandwidth must be > 0 bps"),
            NetConfigError::ZeroFanout => write!(f, "gossip fanout must be ≥ 1"),
            NetConfigError::ZeroDegree => write!(f, "topology degree must be ≥ 1"),
            NetConfigError::ZeroRegions => write!(f, "geo topology needs ≥ 1 region"),
            NetConfigError::InvertedPartition { from_ns, until_ns } => {
                write!(
                    f,
                    "partition window inverted: until {until_ns} < from {from_ns}"
                )
            }
        }
    }
}

impl std::error::Error for NetConfigError {}

/// Validating builder for [`NetConfig`]; see [`NetConfig::builder`].
#[derive(Clone, Copy, Debug)]
pub struct NetConfigBuilder {
    cfg: NetConfig,
}

impl NetConfigBuilder {
    /// Gossip topology.
    #[must_use]
    pub fn topology(mut self, t: Topology) -> Self {
        self.cfg.topology = t;
        self
    }

    /// Base link latency (intra-region on geo topologies).
    #[must_use]
    pub fn latency(mut self, m: LatencyModel) -> Self {
        self.cfg.latency = m;
        self
    }

    /// Drop probability.
    #[must_use]
    pub fn drop(mut self, p: f64) -> Self {
        self.cfg.drop_prob = p;
        self
    }

    /// Duplication probability.
    #[must_use]
    pub fn dup(mut self, p: f64) -> Self {
        self.cfg.dup_prob = p;
        self
    }

    /// Reorder probability.
    #[must_use]
    pub fn reorder(mut self, p: f64) -> Self {
        self.cfg.reorder_prob = p;
        self
    }

    /// Half/half partition window.
    #[must_use]
    pub fn partition(mut self, from_ns: u64, until_ns: u64) -> Self {
        self.cfg.partition = Some((from_ns, until_ns));
        self
    }

    /// Per-link bandwidth for transmission-delay queueing.
    #[must_use]
    pub fn bandwidth_bps(mut self, bps: u64) -> Self {
        self.cfg.bandwidth_bps = Some(bps);
        self
    }

    /// Gossip fanout cap per announcement hop.
    #[must_use]
    pub fn fanout(mut self, f: usize) -> Self {
        self.cfg.fanout = Some(f);
        self
    }

    /// Record the per-delivery trace (costs O(deliveries) memory).
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Validates and builds. Rejects NaN/out-of-range probabilities,
    /// zero bandwidth/fanout/degree/regions, and inverted partition
    /// windows.
    pub fn build(self) -> Result<NetConfig, NetConfigError> {
        let cfg = self.cfg;
        for (field, value) in [
            ("drop", cfg.drop_prob),
            ("dup", cfg.dup_prob),
            ("reorder", cfg.reorder_prob),
        ] {
            if value.is_nan() || !(0.0..=1.0).contains(&value) {
                return Err(NetConfigError::InvalidProbability { field, value });
            }
        }
        if cfg.bandwidth_bps == Some(0) {
            return Err(NetConfigError::ZeroBandwidth);
        }
        if cfg.fanout == Some(0) {
            return Err(NetConfigError::ZeroFanout);
        }
        match cfg.topology {
            Topology::FullMesh => {}
            Topology::Relay { k } => {
                if k == 0 {
                    return Err(NetConfigError::ZeroDegree);
                }
            }
            Topology::Geo { regions, k, .. } => {
                if regions == 0 {
                    return Err(NetConfigError::ZeroRegions);
                }
                if k == 0 {
                    return Err(NetConfigError::ZeroDegree);
                }
            }
        }
        if let Some((from_ns, until_ns)) = cfg.partition {
            if until_ns < from_ns {
                return Err(NetConfigError::InvertedPartition { from_ns, until_ns });
            }
        }
        Ok(cfg)
    }
}

impl NetConfig {
    /// A validating builder with the conventional defaults: full mesh,
    /// constant-zero latency, no faults, no bandwidth cap, full-degree
    /// fanout, trace off, sparse stats.
    pub fn builder() -> NetConfigBuilder {
        NetConfigBuilder {
            cfg: NetConfig {
                topology: Topology::FullMesh,
                latency: LatencyModel::Constant(0),
                drop_prob: 0.0,
                dup_prob: 0.0,
                reorder_prob: 0.0,
                partition: None,
                bandwidth_bps: None,
                fanout: None,
                trace: false,
            },
        }
    }

    /// A fault-free full-mesh config with the given latency.
    pub fn ideal(latency: LatencyModel) -> NetConfig {
        NetConfig::builder()
            .latency(latency)
            .build()
            .expect("ideal config is always valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_ideal_mesh() {
        let cfg = NetConfig::builder().build().unwrap();
        assert_eq!(cfg.topology, Topology::FullMesh);
        assert_eq!(cfg.latency, LatencyModel::Constant(0));
        assert_eq!(cfg.drop_prob, 0.0);
        assert!(!cfg.trace);
        assert_eq!(cfg, NetConfig::ideal(LatencyModel::Constant(0)));
    }

    #[test]
    fn errors_render_their_constraint() {
        let e = NetConfigError::InvalidProbability {
            field: "drop",
            value: 1.5,
        };
        assert!(e.to_string().contains("[0, 1]"));
        assert!(NetConfigError::ZeroBandwidth.to_string().contains("> 0"));
        assert!(NetConfigError::InvertedPartition {
            from_ns: 9,
            until_ns: 3
        }
        .to_string()
        .contains("inverted"));
    }
}
