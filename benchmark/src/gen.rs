//! Seeded input generation: the serving request stream.
//!
//! The stream keeps `am_node::loadgen`'s mix (a read-side share, split in
//! twelfths over six query kinds; appends from a zipf-skewed author pool)
//! but deals it from a shuffled deck instead of drawing each request
//! independently: every seed gets exactly the same number of requests of
//! each kind, only their order and their node/author/height arguments
//! differ. Two seeds therefore do the same amount of work, which is what
//! lets runs with different seeds be compared at all.

use am_node::api::{
    AppendReq, FinalizedHeightReq, LinearizeReq, ReadReq, Request, SnapshotAtFinalReq,
    SnapshotAtReq, TipReq,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Twelfths of the read side per kind, in [`Kind`] order after `Append`:
/// Read, Tip, SnapshotAt, Linearize, FinalizedHeight, SnapshotAtFinal.
pub const READ_SIDE_TWELFTHS: [usize; 6] = [1, 6, 2, 1, 1, 1];

/// Author pool the zipf draw ranges over.
pub const AUTHORS: usize = 64;

/// Zipf exponent of the author draw.
pub const SKEW: f64 = 1.0;

/// The four classes latency is reported by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `Request::Append`.
    Append,
    /// `Request::Read` (quorum read).
    Read,
    /// Tip / SnapshotAt / Linearize, served from the archive.
    Query,
    /// FinalizedHeight / SnapshotAtFinal.
    Finality,
}

impl Class {
    /// All classes, in reporting order.
    pub const ALL: [Class; 4] = [Class::Append, Class::Read, Class::Query, Class::Finality];

    /// Position in [`Class::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case name used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Class::Append => "append",
            Class::Read => "read",
            Class::Query => "query",
            Class::Finality => "finality",
        }
    }
}

/// The class of a generated request.
pub fn class_of(req: &Request) -> Class {
    match req {
        Request::Append(_) | Request::AppendSeq(_) => Class::Append,
        Request::Read(_) => Class::Read,
        Request::Tip(_) | Request::SnapshotAt(_) | Request::Linearize(_) | Request::Stats => {
            Class::Query
        }
        Request::FinalizedHeight(_) | Request::SnapshotAtFinal(_) => Class::Finality,
    }
}

/// Shape of a request stream.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Requests in the stream.
    pub total: usize,
    /// Share of read-side requests, in percent.
    pub read_percent: usize,
    /// Cluster size the node arguments range over.
    pub nodes: usize,
}

impl Mix {
    /// Appends in the stream.
    pub fn appends(&self) -> usize {
        self.total - self.read_side()
    }

    fn read_side(&self) -> usize {
        self.total * self.read_percent / 100
    }

    /// Requests of each kind: `[Append, Read, Tip, SnapshotAt, Linearize,
    /// FinalizedHeight, SnapshotAtFinal]`. The read side is split by
    /// twelfths; what the division leaves over goes to `Tip`.
    pub fn counts(&self) -> [usize; 7] {
        let read_side = self.read_side();
        let mut counts = [0usize; 7];
        counts[0] = self.total - read_side;
        for (slot, twelfths) in counts[1..].iter_mut().zip(READ_SIDE_TWELFTHS) {
            *slot = read_side * twelfths / 12;
        }
        counts[2] += read_side - counts[1..].iter().sum::<usize>();
        counts
    }
}

/// Cumulative zipf distribution over `n` keys, sampled by binary search.
struct ZipfCdf(Vec<f64>);

impl ZipfCdf {
    fn new(n: usize, theta: f64) -> ZipfCdf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        ZipfCdf(
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        )
    }

    fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1) as u64
    }
}

/// The request stream of `mix` under `seed`.
pub fn requests(mix: &Mix, seed: u64) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e12_7e00);
    let mut deck: Vec<u8> = Vec::with_capacity(mix.total);
    for (kind, count) in mix.counts().into_iter().enumerate() {
        deck.extend(std::iter::repeat_n(kind as u8, count));
    }
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.gen_range(0..=i));
    }
    let zipf = ZipfCdf::new(AUTHORS, SKEW);
    let appends = mix.appends().max(1) as u64;
    deck.into_iter()
        .map(|kind| {
            if kind == 0 {
                return Request::Append(AppendReq {
                    author: zipf.sample(&mut rng),
                    value: if rng.gen::<bool>() { 1 } else { -1 },
                });
            }
            let node = rng.gen_range(0..mix.nodes) as u64;
            match kind {
                1 => Request::Read(ReadReq { node }),
                2 => Request::Tip(TipReq { node }),
                3 => Request::SnapshotAt(SnapshotAtReq {
                    node,
                    // Uniform over the final history; the server clamps to
                    // the current height, so early requests snapshot the
                    // whole log and later ones a mid-log prefix.
                    height: rng.gen_range(0..appends),
                }),
                4 => Request::Linearize(LinearizeReq { node }),
                5 => Request::FinalizedHeight(FinalizedHeightReq { node }),
                _ => Request::SnapshotAtFinal(SnapshotAtFinalReq { node }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(reqs: &[Request], pred: impl Fn(&Request) -> bool) -> f64 {
        reqs.iter().filter(|r| pred(r)).count() as f64 / reqs.len() as f64
    }

    #[test]
    fn mix_shares_are_within_one_percent_of_the_table() {
        for (read_percent, nodes) in [(90usize, 4usize), (10, 8)] {
            let mix = Mix {
                total: 20_000,
                read_percent,
                nodes,
            };
            let reqs = requests(&mix, 11);
            assert_eq!(reqs.len(), mix.total);
            let read_side = read_percent as f64 / 100.0;
            let want = [
                (1.0 - read_side, Class::Append),
                (read_side / 12.0, Class::Read),
                (read_side * 9.0 / 12.0, Class::Query),
                (read_side * 2.0 / 12.0, Class::Finality),
            ];
            for (want, class) in want {
                let got = share(&reqs, |r| class_of(r) == class);
                assert!(
                    (got - want).abs() < 0.01,
                    "{class:?} at {read_percent}% reads: {got} vs {want}"
                );
            }
            let tips = share(&reqs, |r| matches!(r, Request::Tip(_)));
            assert!((tips - read_side * 6.0 / 12.0).abs() < 0.01, "tip {tips}");
            let snaps = share(&reqs, |r| matches!(r, Request::SnapshotAt(_)));
            assert!(
                (snaps - read_side * 2.0 / 12.0).abs() < 0.01,
                "snap {snaps}"
            );
        }
    }

    #[test]
    fn every_seed_deals_the_same_counts_in_a_different_order() {
        let mix = Mix {
            total: 5_000,
            read_percent: 90,
            nodes: 4,
        };
        let (a, b) = (requests(&mix, 1), requests(&mix, 2));
        assert_ne!(a, b);
        assert_eq!(a, requests(&mix, 1), "same seed, same stream");
        for class in Class::ALL {
            let count = |rs: &[Request]| rs.iter().filter(|r| class_of(r) == class).count();
            assert_eq!(count(&a), count(&b), "{class:?}");
        }
        assert_eq!(mix.counts().iter().sum::<usize>(), mix.total);
        assert_eq!(mix.counts()[0], mix.appends());
    }

    #[test]
    fn arguments_stay_in_range_and_authors_are_skewed() {
        let mix = Mix {
            total: 8_000,
            read_percent: 10,
            nodes: 8,
        };
        let reqs = requests(&mix, 3);
        let mut by_author = [0usize; AUTHORS];
        for r in &reqs {
            match r {
                Request::Append(a) => by_author[a.author as usize] += 1,
                Request::Read(ReadReq { node })
                | Request::Tip(TipReq { node })
                | Request::Linearize(LinearizeReq { node }) => assert!(*node < 8),
                Request::SnapshotAt(s) => assert!(s.height < mix.appends() as u64),
                _ => {}
            }
        }
        assert!(
            by_author[0] > 4 * by_author[AUTHORS / 2].max(1),
            "zipf(1): the hottest author dominates the median one"
        );
    }
}
