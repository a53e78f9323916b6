//! `TokenAuthority::next_grant`'s instrumentation, on and off.
//!
//! With am-obs enabled every grant adds one to the `poisson.grants`
//! counter and records one `poisson/grant` sim span: the wait since the
//! previous system-wide grant, so the spans' durations telescope to the
//! last grant's time. With am-obs disabled neither moves, the stream of
//! grants is the same, and the wait a later enabled grant records still
//! starts at the grant drawn just before it.
//!
//! The obs registry is process-global, so this file is its own test binary
//! and holds one `#[test]`: nothing else can enable, disable or reset the
//! registry while it runs.

use am_core::Time;
use am_poisson::{Grant, TokenAuthority};

/// Grants drawn per phase.
const N: u64 = 500;

fn grant_count() -> u64 {
    am_obs::counter("poisson.grants").get()
}

/// `(count, total_ns)` of the `poisson/grant` span aggregate.
fn grant_spans() -> (u64, u64) {
    am_obs::span_stats()
        .into_iter()
        .find(|(path, _)| path == "poisson/grant")
        .map_or((0, 0), |(_, s)| (s.count, s.total_ns))
}

fn draw(auth: &mut TokenAuthority, n: u64) -> Vec<Grant> {
    (0..n).map(|_| auth.next_grant()).collect()
}

fn ns(t: Time) -> u64 {
    (t.seconds() * 1e9) as u64
}

#[test]
fn grants_count_and_record_spans_only_while_obs_is_enabled() {
    let new = || TokenAuthority::new(4, 1.0, 1.0, &[], 7);

    am_obs::set_enabled(true);
    am_obs::reset();
    let mut on = new();
    let traced = draw(&mut on, N);
    assert_eq!(grant_count(), N, "one count per grant");
    let last = traced.last().unwrap().time;
    assert_eq!(
        grant_spans(),
        (N, ns(last)),
        "one span per grant, the waits summing to the last grant's time"
    );

    am_obs::set_enabled(false);
    let mut off = new();
    assert_eq!(draw(&mut off, N), traced, "obs does not move the stream");
    let quiet = draw(&mut on, N);
    assert_eq!(grant_count(), N, "disabled grants are not counted");
    assert_eq!(
        grant_spans(),
        (N, ns(last)),
        "disabled grants record no span"
    );

    am_obs::set_enabled(true);
    let next = on.next_grant().time;
    let before = quiet.last().unwrap().time;
    assert_eq!(grant_count(), N + 1);
    assert_eq!(
        grant_spans(),
        (N + 1, ns(last) + (ns(next) - ns(before))),
        "the wait starts at the grant drawn while disabled"
    );
    am_obs::set_enabled(false);
    am_obs::reset();
}
