//! # am-stats — statistics substrate for the append-memory reproduction
//!
//! Everything the experiments need to compare *measured* protocol behaviour
//! against the paper's *proved* bounds, implemented from scratch:
//!
//! * [`dist`] — Normal, Poisson, and Binomial distributions (pmf/pdf, cdf,
//!   tail bounds) with an `erf` implementation accurate to ~1e-7.
//! * [`estimator`] — Monte-Carlo proportion estimators with Wilson-score
//!   confidence intervals.
//! * [`sequential`] — adaptive stopping rules: stop a point's sampling
//!   loop once its Wilson half-width reaches a target or a budget cap.
//! * [`theory`] — the paper's closed-form bounds (chain resilience
//!   `1/(1+λ(n−t))` from Theorem 5.4, the validity tails of Theorems 5.2
//!   and 5.6, and the Lemma 5.5 silence/withhold bounds).
//! * [`table`] — plain-text table and series rendering for the experiment
//!   harness.
//! * [`summary`] — running mean/variance/quantile summaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod estimator;
pub mod ks;
pub mod sequential;
pub mod summary;
pub mod table;
pub mod theory;

pub use dist::{binomial_pmf, erf, normal_cdf, normal_pdf, poisson_cdf, poisson_pmf};
pub use estimator::{Proportion, WilsonInterval};
pub use ks::{exponential_cdf, ks_fits, ks_statistic, uniform_cdf};
pub use sequential::{required_trials, StopReason, StopRule};
pub use summary::Summary;
pub use table::{Series, Table};
pub use theory::{
    chain_resilience_bound, dag_validity_failure_bound, timestamp_validity_failure_bound,
    withhold_burst_bound,
};
