//! Shard-merge equivalence: sweeps split into interleaved trial-index
//! shards and merged back must produce final JSON byte-identical to the
//! unsharded run — fixed and adaptive stopping alike, and regardless of
//! whether a shard was killed mid-run and resumed (DESIGN.md, "Sweep
//! lifecycle").
//!
//! The hand-driven lanes call `execute` once per role, as separate
//! `--shard` / `--merge-shards` invocations on different machines would;
//! the `coordinate` lanes run the shards on scoped threads and then the
//! merge, as `--workers` does. CI's shard-smoke job repeats both through
//! the binary, with the shards as real OS processes.

use am_experiments::{coordinate, execute, HarnessOpts, SweepRole};
use am_protocols::{ShardSpec, SweepConfig};
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};

fn base_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("am_shard_test_{tag}_{}", std::process::id()))
}

fn opts(out_dir: &Path, sweep: SweepConfig) -> HarnessOpts {
    HarnessOpts {
        seed: 0,
        out_dir: out_dir.to_string_lossy().into_owned(),
        sweep,
        fast: true,
        trials_scale: 1,
        resume: false,
        topology: None,
        role: SweepRole::Whole,
    }
}

fn shard(i: u32, m: u32) -> SweepRole {
    SweepRole::Shard(ShardSpec::new(i, m).unwrap())
}

fn merge(m: u32) -> SweepRole {
    SweepRole::Merge(NonZeroU32::new(m).unwrap())
}

/// `--fast` CLI equivalent: small batches so budgets span several
/// windows and interruption mid-point stays reachable.
fn fast_sweep(adaptive: Option<f64>) -> SweepConfig {
    let mut sweep = match adaptive {
        Some(w) => SweepConfig::adaptive(w),
        None => SweepConfig::fixed(),
    };
    sweep.batch = 8;
    sweep
}

/// Runs `id` unsharded into `dir/unsharded`, then as `m` interleaved
/// shards merged into `dir/sharded`, and returns both JSON bodies.
fn run_both(id: &str, dir: &Path, m: u32, sweep: SweepConfig) -> (Vec<u8>, Vec<u8>) {
    let (dir_a, dir_b) = (dir.join("unsharded"), dir.join("sharded"));
    execute(id, &opts(&dir_a, sweep)).expect("known experiment");

    for i in 0..m {
        let mut o = opts(&dir_b, sweep);
        o.role = shard(i, m);
        let rec = execute(id, &o).expect("known experiment");
        assert!(rec.output.is_some(), "shard {i}/{m} finishes");
    }
    let mut o = opts(&dir_b, sweep);
    o.role = merge(m);
    let rec = execute(id, &o).expect("known experiment");
    assert!(rec.output.is_some(), "merge completes");

    let a = std::fs::read(dir_a.join(format!("{id}.json"))).expect("unsharded JSON");
    let b = std::fs::read(dir_b.join(format!("{id}.json"))).expect("merged JSON");
    (a, b)
}

#[test]
fn one_of_one_shard_equals_unsharded_e6() {
    let dir = base_dir("e6_1of1");
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = run_both("e6", &dir, 1, fast_sweep(None));
    assert_eq!(a, b, "a 1/1 shard is exactly the unsharded run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn four_interleaved_shards_merge_byte_identical_e8() {
    let dir = base_dir("e8_4way");
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = run_both("e8", &dir, 4, fast_sweep(None));
    assert_eq!(a, b, "4-shard merge must be byte-identical");
    // The merge consumed the shard checkpoints: only final artifacts stay.
    for i in 0..4u32 {
        let f = dir
            .join("sharded")
            .join(ShardSpec::new(i, 4).unwrap().file_name("e8"));
        assert!(!f.exists(), "merge deletes {}", f.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_early_stop_points_survive_sharding_e6() {
    // Adaptive stopping is the hard case: shards cannot know the global
    // hit tally, so they overrun conservatively and the merge replays the
    // global stop rule over summed windows.
    let dir = base_dir("e6_adaptive");
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = run_both("e6", &dir, 2, fast_sweep(Some(0.05)));
    assert_eq!(a, b, "adaptive 2-shard merge must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_four_shard_merge_matches_e8() {
    let dir = base_dir("e8_adaptive");
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = run_both("e8", &dir, 4, fast_sweep(Some(0.05)));
    assert_eq!(a, b, "adaptive 4-shard merge must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// E15's fast sweep needs ~30 s in release and ~15 min unoptimized, so
/// this lane is ignored under plain `cargo test` and run by CI's
/// release-mode shard job:
/// `cargo test --release -p am-experiments --test sharding -- --ignored`.
#[test]
#[ignore = "slow: run in release mode (see CI shard-smoke)"]
fn two_shard_merge_byte_identical_e15() {
    let dir = base_dir("e15_2way");
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = run_both("e15", &dir, 2, fast_sweep(None));
    assert_eq!(a, b, "e15 2-shard merge must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_shard_resumed_then_merged_matches_e8() {
    let dir = base_dir("e8_kill");
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = fast_sweep(Some(0.05));
    let (dir_a, dir_b) = (dir.join("unsharded"), dir.join("sharded"));
    execute("e8", &opts(&dir_a, sweep)).expect("e8 exists");

    for i in 0..3u32 {
        let mut o = opts(&dir_b, sweep);
        o.role = shard(i, 3);
        if i == 1 {
            // Kill shard 1 after one batch window per point...
            o.sweep.max_batches_per_run = Some(1);
            let rec = execute("e8", &o).expect("e8 exists");
            assert!(rec.output.is_none(), "capped shard reports incomplete");
            let ckpt = dir_b.join(ShardSpec::new(1, 3).unwrap().file_name("e8"));
            assert!(ckpt.exists(), "killed shard leaves its checkpoint");
            // ...then restart it from the checkpoint, uncapped.
            o.sweep.max_batches_per_run = None;
            o.resume = true;
        }
        let rec = execute("e8", &o).expect("e8 exists");
        assert!(rec.output.is_some(), "shard {i}/3 finishes");
    }
    let mut o = opts(&dir_b, sweep);
    o.role = merge(3);
    assert!(execute("e8", &o).expect("e8 exists").output.is_some());

    let a = std::fs::read(dir_a.join("e8.json")).unwrap();
    let b = std::fs::read(dir_b.join("e8.json")).unwrap();
    assert_eq!(a, b, "kill + resume + merge must still be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_shard_is_topped_up_by_the_merge_e6() {
    // A shard that never ran at all: the merge re-runs its residue class
    // inline, so the final JSON is still exact (just slower).
    let dir = base_dir("e6_missing");
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = fast_sweep(None);
    let (dir_a, dir_b) = (dir.join("unsharded"), dir.join("sharded"));
    execute("e6", &opts(&dir_a, sweep)).expect("e6 exists");

    for i in [0u32, 2] {
        let mut o = opts(&dir_b, sweep);
        o.role = shard(i, 3);
        execute("e6", &o).expect("e6 exists");
    }
    let mut o = opts(&dir_b, sweep);
    o.role = merge(3);
    assert!(execute("e6", &o).expect("e6 exists").output.is_some());

    let a = std::fs::read(dir_a.join("e6.json")).unwrap();
    let b = std::fs::read(dir_b.join("e6.json")).unwrap();
    assert_eq!(a, b, "merge tops up the absent shard's trials exactly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_of_one_with_no_log_is_the_unsharded_run_e6() {
    // The smallest merge there is. A shard count of 0 used to reach the
    // engine through the library (the CLI alone rejected it) and produce
    // an all-zero table with no error; `NonZeroU32` now makes that
    // unrepresentable, and the 1-way merge over a missing log must run
    // every trial itself.
    let dir = base_dir("e6_merge1");
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = fast_sweep(None);
    let (dir_a, dir_b) = (dir.join("unsharded"), dir.join("merged"));
    execute("e6", &opts(&dir_a, sweep)).expect("e6 exists");
    let mut o = opts(&dir_b, sweep);
    o.role = merge(1);
    assert!(execute("e6", &o).expect("e6 exists").output.is_some());
    let a = std::fs::read(dir_a.join("e6.json")).unwrap();
    let b = std::fs::read(dir_b.join("e6.json")).unwrap();
    assert_eq!(a, b, "a 1-way merge of nothing is the unsharded run");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden/e6.json");
    assert_eq!(std::fs::read(golden).unwrap(), b, "and it is the golden");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_merge_reproduces_the_committed_golden_e8() {
    // The same configuration CI's golden job runs (`--fast --seed 0`,
    // fixed budgets): a 4-shard merge must reproduce the checked-in
    // golden byte for byte, pinning sharding to the repo's reference
    // results and not merely to a same-process twin.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden/e8.json");
    let dir = base_dir("e8_golden");
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = fast_sweep(None);
    for i in 0..4u32 {
        let mut o = opts(&dir, sweep);
        o.role = shard(i, 4);
        execute("e8", &o).expect("e8 exists");
    }
    let mut o = opts(&dir, sweep);
    o.role = merge(4);
    assert!(execute("e8", &o).expect("e8 exists").output.is_some());

    let g = std::fs::read(&golden).expect("committed golden");
    let b = std::fs::read(dir.join("e8.json")).unwrap();
    assert_eq!(g, b, "4-shard merge must reproduce results/golden/e8.json");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `coordinate("e8", …, 3)` under `sweep` and checks that the result
/// is the committed golden and that no checkpoint outlives the merge.
fn coordinate_matches_the_golden_e8(tag: &str, sweep: SweepConfig) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden/e8.json");
    let dir = base_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let workers = NonZeroU32::new(3).unwrap();
    let rec = coordinate("e8", &opts(&dir, sweep), workers).expect("e8 exists");
    assert!(rec.output.is_some(), "the merge publishes");
    let g = std::fs::read(&golden).expect("committed golden");
    let b = std::fs::read(dir.join("e8.json")).unwrap();
    assert_eq!(g, b, "3 shard threads + merge must reproduce the golden");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with("checkpoint.json"))
        .collect();
    assert!(
        left.is_empty(),
        "the merge deletes every log, found {left:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinate_on_threads_reproduces_the_golden_e8() {
    coordinate_matches_the_golden_e8("e8_coord", fast_sweep(None));
}

#[test]
fn coordinate_merge_tops_up_capped_workers_e8() {
    // Every worker stops after one window per point; the merge runs the
    // windows their logs lack, so the results are still exact.
    let mut sweep = fast_sweep(None);
    sweep.max_batches_per_run = Some(1);
    coordinate_matches_the_golden_e8("e8_coord_capped", sweep);
}

#[test]
fn coordinate_records_the_whole_runs_duration_e6() {
    // The record's clock covers the shard threads as well as the merge.
    // With every window logged by the workers the merge only replays
    // tallies, so a record timing the merge alone reads a small fraction
    // of the wall time the caller saw.
    let dir = base_dir("e6_coord_clock");
    let _ = std::fs::remove_dir_all(&dir);
    let workers = NonZeroU32::new(2).unwrap();
    let started = std::time::Instant::now();
    let rec = coordinate("e6", &opts(&dir, fast_sweep(None)), workers).expect("e6 exists");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(rec.output.is_some(), "the merge publishes");
    assert!(
        rec.duration_ms <= wall_ms && rec.duration_ms >= 0.5 * wall_ms,
        "record {:.3} ms of a {wall_ms:.3} ms run",
        rec.duration_ms
    );
    assert_eq!(rec.budget_s, am_experiments::find("e6").unwrap().budget_s);
    let _ = std::fs::remove_dir_all(&dir);
}
