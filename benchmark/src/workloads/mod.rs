//! The seven workloads. Names are final: later issues cite them.

mod gossip;
mod hop;
mod modelcheck;
mod serve;
mod shadow;
mod sweep;

use crate::rep::Workload;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 7] = [
    "serve_read_heavy",
    "serve_append_heavy",
    "sweep_abstract",
    "sweep_net",
    "bft_finality",
    "modelcheck",
    "gossip_scale",
];

/// Builds a workload; `scale` divides its fixed work (1 = full size, 10 =
/// the smoke size).
pub fn build(name: &'static str, seed: u64, scale: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "serve_read_heavy" => Box::new(serve::Serve::read_heavy(seed, scale)),
        "serve_append_heavy" => Box::new(serve::Serve::append_heavy(seed, scale)),
        "sweep_abstract" | "sweep_net" | "bft_finality" => {
            Box::new(sweep::Sweep::new(name, seed, scale))
        }
        "modelcheck" => Box::new(modelcheck::ModelCheck::new(seed, scale)),
        "gossip_scale" => Box::new(gossip::Gossip::new(seed, scale)),
        _ => return None,
    })
}
