//! The cut of a [`NetConfig`](crate::NetConfig)'s half/half partition.

/// Whether the partition `window = (from_ns, until_ns)` cuts a
/// `from → to` send made at `now_ns` in an `n`-node network: the cut runs
/// between `0..n/2` and the rest during `[from_ns, until_ns)`, and heals
/// at `until_ns`.
#[inline]
pub(crate) fn partition_cuts(
    window: (u64, u64),
    n: usize,
    from: usize,
    to: usize,
    now_ns: u64,
) -> bool {
    let half = n / 2;
    (window.0..window.1).contains(&now_ns) && (from < half) != (to < half)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_cuts_only_across_and_only_in_window() {
        // Four nodes: {0, 1} on one side, {2, 3} on the other.
        let p = |from, to, now| partition_cuts((100, 200), 4, from, to, now);
        assert!(p(0, 2, 150));
        assert!(p(2, 1, 150));
        assert!(!p(0, 1, 150), "same side never cut");
        assert!(!p(2, 3, 150), "same side never cut");
        assert!(!p(0, 2, 99), "before the window");
        assert!(!p(0, 2, 200), "healed at until_ns");
        // An odd count puts the middle node on the second side.
        assert!(!partition_cuts((100, 200), 5, 2, 4, 150));
        assert!(partition_cuts((100, 200), 5, 1, 2, 150));
    }
}
