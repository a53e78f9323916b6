//! `modelcheck`: the `am-sched` compact search and the nonforking checker.

use crate::probes;
use crate::rep::{Meter, Outcome, Rep, Workload};
use crate::trace::Tracer;
use crate::Layers;
use am_sched::{
    check_nonforking, search, Config, NonforkingReport, QuorumVoteProtocol, SearchOptions,
    SearchReport,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Budget no search of the workload reaches.
const SEARCH_BUDGET: usize = 2_000_000;

/// Budget no nonforking check of the workload reaches.
const NONFORKING_BUDGET: usize = 400_000;

/// One call into `am-sched`.
#[derive(Clone, Debug)]
enum Job {
    /// `search` of the quorum-vote protocol from an input vector.
    Search(Vec<u8>),
    /// `check_nonforking(3, byz, blocks, ..)`.
    Nonforking(Vec<usize>, usize),
}

impl Job {
    fn key(&self) -> String {
        match self {
            Job::Search(inputs) => {
                let bits: String = inputs.iter().map(|b| char::from(b'0' + b)).collect();
                format!("search {bits}")
            }
            Job::Nonforking(byz, blocks) => format!("nonforking byz={byz:?} blocks={blocks}"),
        }
    }
}

enum Done {
    Search(SearchReport),
    Nonforking(NonforkingReport),
}

/// The model-checking workload.
pub struct ModelCheck {
    /// Nodes of the quorum-vote protocol (6 at full size).
    n: usize,
    jobs: Vec<Job>,
}

impl ModelCheck {
    /// Five n = 6 searches (one-sided inputs have large stabilisers, so
    /// canonicalisation-bound and visited-set-bound searches both occur)
    /// and two nonforking checks. The smoke size drops to n = 5.
    pub fn new(seed: u64, scale: usize) -> ModelCheck {
        let (n, vectors, blocks): (usize, &[&[u8]], usize) = if scale == 1 {
            (
                6,
                &[
                    &[0, 0, 0, 1, 1, 1],
                    &[0, 0, 1, 1, 1, 1],
                    &[0, 1, 1, 1, 1, 1],
                    &[0, 0, 0, 0, 1, 1],
                    &[0, 0, 0, 0, 0, 1],
                ],
                6,
            )
        } else {
            (5, &[&[0, 0, 1, 1, 1], &[0, 0, 0, 1, 1]], 5)
        };
        let mut jobs: Vec<Job> = vectors.iter().map(|v| Job::Search(v.to_vec())).collect();
        jobs.push(Job::Nonforking(vec![], blocks));
        jobs.push(Job::Nonforking(vec![1], blocks));
        // The searches are deterministic; the seed only deals their order.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5c4e_d000);
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.gen_range(0..=i));
        }
        ModelCheck { n, jobs }
    }

    fn protocol(&self) -> QuorumVoteProtocol {
        QuorumVoteProtocol::new(self.n, self.n / 2 + 1, 0)
    }

    /// Builds the protocol and warms up on a five-node search (about a
    /// twentieth of the workload's states).
    fn set_up(&self, meter: &mut Meter) -> QuorumVoteProtocol {
        meter.inputs_done();
        let small = QuorumVoteProtocol::new(5, 3, 0);
        black_box(search(
            &small,
            &Config::initial(&[0, 0, 1, 1, 1]),
            &SearchOptions::reduced(SEARCH_BUDGET),
        ));
        self.protocol()
    }

    fn run(
        &self,
        mut meter: Meter,
        proto: &QuorumVoteProtocol,
        mut tracer: Option<&mut Tracer>,
    ) -> (Rep, Vec<Done>) {
        let names = tracer
            .as_deref_mut()
            .map(|t| (t.name("sched.search"), t.name("sched.nonforking")));
        let opts = SearchOptions::reduced(SEARCH_BUDGET);
        let mut done = Vec::with_capacity(self.jobs.len());
        meter.setup_done();
        for (i, job) in self.jobs.iter().enumerate() {
            if i > 0 {
                meter.calibrate();
            }
            let span = tracer.as_deref_mut().zip(names).map(|(t, (s, nf))| {
                t.set_op(i as u32);
                t.enter(if matches!(job, Job::Search(_)) { s } else { nf })
            });
            done.push(match job {
                Job::Search(inputs) => Done::Search(search(proto, &Config::initial(inputs), &opts)),
                Job::Nonforking(byz, blocks) => {
                    Done::Nonforking(check_nonforking(3, byz, *blocks, NONFORKING_BUDGET))
                }
            });
            if let Some((t, id)) = tracer.as_deref_mut().zip(span) {
                t.exit(id);
            }
        }
        meter.run_done();

        let mut out = Outcome::default();
        let mut problems = Vec::new();
        let (mut ops, mut failed) = (0u64, 0u64);
        for (job, d) in self.jobs.iter().zip(&done) {
            let key = job.key();
            let (states, truncated) = match d {
                Done::Search(r) => {
                    // What the checker finds about the protocol is an outcome
                    // to pin, not a failure of the run.
                    out.put(
                        format!("{key}: agreement violation found"),
                        u64::from(r.agreement_violation.is_some()),
                    );
                    out.put_str(format!("{key}: valency"), format!("{:?}", r.valency));
                    out.put(format!("{key}: transitions"), r.transitions);
                    (r.states, r.truncated)
                }
                Done::Nonforking(r) => {
                    if let Some(v) = &r.violation {
                        problems.push(format!("{key}: {v}"));
                    }
                    out.put(format!("{key}: max finalized"), r.max_finalized as u64);
                    (r.states, r.truncated)
                }
            };
            out.put(format!("{key}: states"), states as u64);
            ops += states as u64;
            if truncated {
                failed += states as u64;
                problems.push(format!("{key}: truncated at {states} states"));
            }
        }
        (meter.finish(ops, failed, out, problems), done)
    }
}

impl Workload for ModelCheck {
    fn name(&self) -> &'static str {
        "modelcheck"
    }

    fn op_unit(&self) -> &'static str {
        "states"
    }

    fn rep(&self) -> Rep {
        let mut meter = Meter::start(4);
        let proto = self.set_up(&mut meter);
        self.run(meter, &proto, None).0
    }

    fn traced(&self, tracer: &mut Tracer, layers: &mut Layers) -> Rep {
        let mut meter = Meter::start(4);
        let proto = self.set_up(&mut meter);
        let (rep, done) = self.run(meter, &proto, Some(tracer));
        let (mut states, mut transitions, mut hits, mut skipped, mut folds) = (0u64, 0, 0, 0, 0);
        let mut nf_states = 0u64;
        for d in &done {
            match d {
                Done::Search(r) => {
                    states += r.states as u64;
                    transitions += r.transitions;
                    hits += r.fingerprint_hits;
                    skipped += r.por_sleep_skipped;
                    folds += r.symmetry_folds;
                }
                Done::Nonforking(r) => nf_states += r.states as u64,
            }
        }
        layers.set("sched.search.states", states as f64);
        layers.set("sched.search.transitions", transitions as f64);
        layers.set("sched.search.fingerprint_hits", hits as f64);
        layers.set("sched.search.sleep_skipped", skipped as f64);
        layers.set("sched.search.symmetry_folds", folds as f64);
        layers.set("sched.dedup_ratio", states as f64 / (states + hits) as f64);
        layers.set(
            "sched.search.ns_per_state",
            tracer.stats_of("sched.search").total_ns as f64 / states as f64,
        );
        layers.set(
            "sched.nonforking.ns_per_state",
            tracer.stats_of("sched.nonforking").total_ns as f64 / nf_states as f64,
        );
        let balanced: Vec<u8> = (0..self.n).map(|v| u8::from(v >= self.n / 2)).collect();
        probes::sched(layers, &proto, &balanced);
        rep
    }
}
