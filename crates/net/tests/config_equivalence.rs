//! The `NetConfig` builder is the only front door for every network the
//! repo simulates; this suite checks its validation promise: property
//! tests drive every invalid field through the builder and assert each
//! is rejected with the right error, and that everything in-range builds.

use am_net::{LatencyModel, NetConfig, NetConfigError, Topology};
use proptest::prelude::*;

proptest! {
    #[test]
    fn probability_fields_reject_exactly_out_of_range(p in -2.0f64..3.0, which in 0usize..3) {
        let b = NetConfig::builder();
        let b = match which {
            0 => b.drop(p),
            1 => b.dup(p),
            2 => b.reorder(p),
            _ => unreachable!(),
        };
        let field = ["drop", "dup", "reorder"][which];
        match b.build() {
            Ok(cfg) => {
                prop_assert!((0.0..=1.0).contains(&p), "{field} accepted {p}");
                let got = [cfg.drop_prob, cfg.dup_prob, cfg.reorder_prob][which];
                prop_assert_eq!(got, p);
            }
            Err(e) => {
                prop_assert!(!(0.0..=1.0).contains(&p), "{} rejected valid {}: {}", field, p, e);
                prop_assert_eq!(e, NetConfigError::InvalidProbability { field, value: p });
            }
        }
    }

    #[test]
    fn nan_probabilities_are_rejected(which in 0usize..3) {
        let b = NetConfig::builder();
        let b = match which {
            0 => b.drop(f64::NAN),
            1 => b.dup(f64::NAN),
            2 => b.reorder(f64::NAN),
            _ => unreachable!(),
        };
        prop_assert!(matches!(
            b.build(),
            Err(NetConfigError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn zero_capacities_are_rejected(
        bps_v in 0u64..1000,
        has_bps in any::<bool>(),
        fanout_v in 0usize..10,
        has_fanout in any::<bool>(),
    ) {
        let bps = has_bps.then_some(bps_v);
        let fanout = has_fanout.then_some(fanout_v);
        let mut b = NetConfig::builder();
        if let Some(bps) = bps {
            b = b.bandwidth_bps(bps);
        }
        if let Some(f) = fanout {
            b = b.fanout(f);
        }
        match b.build() {
            Ok(cfg) => {
                prop_assert_ne!(bps, Some(0));
                prop_assert_ne!(fanout, Some(0));
                prop_assert_eq!(cfg.bandwidth_bps, bps);
                prop_assert_eq!(cfg.fanout, fanout);
            }
            Err(NetConfigError::ZeroBandwidth) => prop_assert_eq!(bps, Some(0)),
            Err(NetConfigError::ZeroFanout) => {
                prop_assert_ne!(bps, Some(0), "bandwidth is checked first");
                prop_assert_eq!(fanout, Some(0));
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }

    #[test]
    fn degenerate_topologies_are_rejected(k in 0usize..6, regions in 0usize..5, geo in any::<bool>()) {
        let topo = if geo {
            Topology::Geo { regions, k, inter: LatencyModel::Constant(1) }
        } else {
            Topology::Relay { k }
        };
        match NetConfig::builder().topology(topo).build() {
            Ok(cfg) => {
                prop_assert!(k >= 1);
                prop_assert!(!geo || regions >= 1);
                prop_assert_eq!(cfg.topology, topo);
            }
            Err(NetConfigError::ZeroRegions) => {
                prop_assert!(geo);
                prop_assert_eq!(regions, 0);
            }
            Err(NetConfigError::ZeroDegree) => prop_assert_eq!(k, 0),
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }

    #[test]
    fn partition_windows_reject_exactly_inversions(from_ns in 0u64..100, until_ns in 0u64..100) {
        match NetConfig::builder().partition(from_ns, until_ns).build() {
            Ok(cfg) => {
                prop_assert!(until_ns >= from_ns);
                prop_assert_eq!(cfg.partition, Some((from_ns, until_ns)));
            }
            Err(NetConfigError::InvertedPartition { from_ns: f, until_ns: u }) => {
                prop_assert!(until_ns < from_ns);
                prop_assert_eq!((f, u), (from_ns, until_ns));
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }
}
