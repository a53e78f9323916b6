//! Checkpoint/resume round trip: a sweep interrupted by the batch cap
//! must (a) not write final results, (b) leave a checkpoint behind, and
//! (c) after `--resume` produce final JSON byte-identical to an
//! uninterrupted run — also when the checkpoint it finds is damaged or
//! belongs to another run, which must be refused with a typed error
//! (the warning), never trusted and never a panic.

use am_experiments::{execute, HarnessOpts, SweepRole};
use am_protocols::{LoadError, ShardCheckpointStore, ShardSpec, SweepConfig};
use std::path::Path;

fn opts(out_dir: &Path, max_batches: Option<u64>, resume: bool) -> HarnessOpts {
    let mut sweep = SweepConfig::adaptive(0.05);
    // Small batches so the --fast budget (24 trials) spans several
    // batches and a 1-batch cap genuinely interrupts mid-point.
    sweep.batch = 8;
    sweep.max_batches_per_run = max_batches;
    HarnessOpts {
        seed: 0,
        out_dir: out_dir.to_string_lossy().into_owned(),
        sweep,
        fast: true,
        trials_scale: 1,
        resume,
        topology: None,
        role: SweepRole::Whole,
    }
}

#[test]
fn interrupted_e8_resumes_to_byte_identical_json() {
    let base = std::env::temp_dir().join(format!("am_resume_test_{}", std::process::id()));
    let (dir_a, dir_b) = (base.join("uninterrupted"), base.join("interrupted"));
    let _ = std::fs::remove_dir_all(&base);

    // Reference: one uninterrupted adaptive run.
    let rec = execute("e8", &opts(&dir_a, None, false)).expect("e8 exists");
    let json_a = dir_a.join("e8.json");
    assert_eq!(
        rec.output.as_deref(),
        json_a.to_str(),
        "uninterrupted run reports its JSON"
    );
    assert!(
        !dir_a.join("e8.checkpoint.json").exists(),
        "completed run discards its checkpoint"
    );

    // Kill: cap every point at one batch. No final JSON may appear; the
    // checkpoint must survive for the resume.
    let rec = execute("e8", &opts(&dir_b, Some(1), false)).expect("e8 exists");
    assert!(
        rec.output.is_none(),
        "interrupted run must not claim output"
    );
    let json_b = dir_b.join("e8.json");
    assert!(
        !json_b.exists(),
        "interrupted run must not write final JSON"
    );
    assert!(
        dir_b.join("e8.checkpoint.json").exists(),
        "interrupted run keeps its checkpoint"
    );

    // Resume: finish from the checkpoint without the cap.
    let rec = execute("e8", &opts(&dir_b, None, true)).expect("e8 exists");
    assert!(rec.output.is_some(), "resumed run completes");
    let a = std::fs::read(&json_a).expect("reference JSON");
    let b = std::fs::read(&json_b).expect("resumed JSON");
    assert_eq!(a, b, "resumed results must be byte-identical");
    assert!(
        !dir_b.join("e8.checkpoint.json").exists(),
        "resume discards the checkpoint once done"
    );

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn repeated_interruptions_still_converge() {
    // Several capped rounds, each advancing every point by one batch,
    // must eventually finish and match a straight run.
    let base = std::env::temp_dir().join(format!("am_resume_multi_{}", std::process::id()));
    let (dir_a, dir_b) = (base.join("straight"), base.join("stuttered"));
    let _ = std::fs::remove_dir_all(&base);

    execute("e6", &opts(&dir_a, None, false)).expect("e6 exists");

    let mut finished = false;
    for round in 0..8 {
        let rec = execute("e6", &opts(&dir_b, Some(1), round > 0)).expect("e6 exists");
        if rec.output.is_some() {
            finished = true;
            break;
        }
    }
    assert!(
        finished,
        "eight 1-batch rounds must complete the fast sweep"
    );
    let a = std::fs::read(dir_a.join("e6.json")).unwrap();
    let b = std::fs::read(dir_b.join("e6.json")).unwrap();
    assert_eq!(a, b, "stuttered run must match the straight run");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn damaged_or_foreign_checkpoints_are_refused_and_rerun_e8() {
    let base = std::env::temp_dir().join(format!("am_resume_damage_{}", std::process::id()));
    let (dir_a, dir_b) = (base.join("uninterrupted"), base.join("damaged"));
    let _ = std::fs::remove_dir_all(&base);
    execute("e8", &opts(&dir_a, None, false)).expect("e8 exists");
    let reference = std::fs::read(dir_a.join("e8.json")).unwrap();

    // A genuine mid-sweep checkpoint to damage.
    execute("e8", &opts(&dir_b, Some(1), false)).expect("e8 exists");
    let ckpt = dir_b.join("e8.checkpoint.json");
    let good = std::fs::read_to_string(&ckpt).unwrap();
    let sweep = opts(&dir_b, None, true).sweep;
    let load = || ShardCheckpointStore::load(&ckpt, 0, ShardSpec::UNSHARDED, &sweep).map(|_| ());
    assert_eq!(load(), Ok(()), "the undamaged checkpoint loads");

    let restamp = |from: &str, to: &str| {
        assert!(good.contains(from), "checkpoint header lacks {from}");
        good.replace(from, to).into_bytes()
    };
    let mismatch = |field| LoadError::Mismatch { field };
    let mut flipped = good.clone().into_bytes();
    flipped[good.len() / 2] ^= 0xFF;
    let mut cases = vec![
        ("one byte flipped", flipped, LoadError::Unparsable),
        (
            "another seed",
            restamp("\"seed\": 0", "\"seed\": 1"),
            mismatch("seed"),
        ),
        (
            "another batch",
            restamp("\"batch\": 8", "\"batch\": 16"),
            mismatch("batch"),
        ),
        (
            "another mode",
            restamp("\"mode\": \"adaptive:0.05\"", "\"mode\": \"fixed\""),
            mismatch("mode"),
        ),
        (
            "another shard index",
            restamp("\"shard_index\": 0", "\"shard_index\": 1"),
            mismatch("shard_index"),
        ),
        (
            "another shard count",
            restamp("\"shard_count\": 1", "\"shard_count\": 2"),
            mismatch("shard_count"),
        ),
    ];
    for cut in [0, 1, good.len() / 3, good.len() / 2, good.len() - 1] {
        let body = good.as_bytes()[..cut].to_vec();
        cases.push(("truncated", body, LoadError::Unparsable));
    }
    for (what, body, refusal) in cases {
        std::fs::write(&ckpt, &body).unwrap();
        assert_eq!(load(), Err(refusal), "{what} ({} bytes)", body.len());
        let rec = execute("e8", &opts(&dir_b, None, true)).expect("e8 exists");
        assert!(rec.output.is_some(), "{what}: the re-run completes");
        let json = dir_b.join("e8.json");
        assert_eq!(std::fs::read(&json).unwrap(), reference, "{what}");
        assert!(!ckpt.exists(), "{what}: the checkpoint is discarded");
        std::fs::remove_file(json).unwrap();
    }

    // No checkpoint at all is the same refusal path.
    assert_eq!(load(), Err(LoadError::Missing));
    execute("e8", &opts(&dir_b, None, true)).expect("e8 exists");
    assert_eq!(std::fs::read(dir_b.join("e8.json")).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&base);
}
