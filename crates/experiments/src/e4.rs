//! E4 — Lemmas 4.1/4.2: the message-passing simulation is correct and its
//! cost shapes are Θ(n²) per append, Θ(n) per read.

use crate::report::{f, Report};
use crate::RunCtx;
use am_mp::{MpSystem, UnsignedMsg, UnsignedSystem};
use am_stats::{Series, Table};

/// Runs E4. The context's seed shifts every trial; the default CLI
/// seed 0 reproduces the historic tables exactly.
pub fn run(ctx: &RunCtx, rep: &mut Report) {
    let seed = ctx.opts.seed;
    let mut table = Table::new(
        "message complexity per operation",
        &["n", "msgs/append", "msgs/read", "append/n^2", "read/n"],
    );
    let mut s_append = Series::new("append msgs / n^2 (→ const)");
    let mut s_read = Series::new("read msgs / n (→ const)");

    for &n in &[4usize, 8, 16, 32, 64] {
        let mut sys = MpSystem::new(n, &[], seed ^ 42);
        for i in 0..4 {
            sys.append(i % n, 1).expect("append completes");
            sys.settle();
        }
        for i in 0..4 {
            sys.read((i + 1) % n).expect("read completes");
            sys.settle();
        }
        let st = sys.stats();
        let a = st.mean_append();
        let r = st.mean_read();
        table.row(&[
            n.to_string(),
            f(a),
            f(r),
            f(a / (n * n) as f64),
            f(r / n as f64),
        ]);
        s_append.push(n as f64, a / (n * n) as f64);
        s_read.push(n as f64, r / n as f64);
    }
    rep.tables.push(table);
    rep.series.push(s_append);
    rep.series.push(s_read);

    // Semantics checks under adversity.
    let mut sys = MpSystem::new(7, &[5, 6], seed ^ 7);
    let m = sys.append(0, 1).expect("append with byz minority");
    let view = sys.read(3).expect("read with byz minority");
    let visible = view.contains(&m);
    rep.note(format!(
        "Quorum intersection (Lemma 4.2): a completed append is visible to \
         every subsequent correct read, with 2/7 Byzantine-silent nodes: {}",
        if visible { "CONFIRMED" } else { "VIOLATED" }
    ));
    let (ma, mb) = sys.byz_equivocate(6, 1, -1, &[0, 1, 2]).unwrap();
    sys.settle();
    let v2 = sys.read(0).expect("read");
    let both = v2.contains(&ma) && v2.contains(&mb);
    rep.note(format!(
        "Equivocation: both Byzantine values are accepted (as in the real \
         append memory, which cannot order concurrent appends): {}",
        if both { "CONFIRMED" } else { "VIOLATED" }
    ));
    let before = sys.local_view(1).len();
    sys.byz_forge(5, 0, -1, 0xbad5eed).unwrap();
    sys.settle();
    let after = sys.local_view(1).len();
    rep.note(format!(
        "Forgery: a fabricated correct-node message is rejected by every \
         correct node: {}",
        if before == after {
            "CONFIRMED"
        } else {
            "VIOLATED"
        }
    ));
    rep.note(
        "The per-append Θ(n²) and full-view reads are the overhead the \
         append-memory abstraction hides — simulating a full-information \
         protocol like Algorithm 1 on top costs Θ(n³) messages per round.",
    );

    // The unsigned variant (Section 4 closing remark): f+1 confirmations
    // replace signatures, at a resilience cost.
    let mut table3 = Table::new(
        "unsigned variant: f+1 echo confirmations (n = 6, t = 2 forging)",
        &["f", "threshold", "forgery adopted", "regime"],
    );
    for &f in &[1usize, 2, 3] {
        let mut sys = UnsignedSystem::new(6, f, &[4, 5]);
        let forged = UnsignedMsg {
            author: 0,
            seq: 0,
            value: -1,
        };
        sys.byz_forge(4, forged, &[5]);
        sys.settle();
        let adopted = (0..4).filter(|&v| sys.view(v).contains(&forged)).count();
        table3.row(&[
            f.to_string(),
            (f + 1).to_string(),
            format!("{adopted}/4 nodes"),
            if f >= 2 {
                "safe (f ≥ t)"
            } else {
                "BROKEN (f < t)"
            }
            .into(),
        ]);
    }
    rep.tables.push(table3);
    rep.note(
        "Without signatures, safety needs f ≥ t and liveness needs \
         f + 1 ≤ n − t — a strictly tighter regime than the signed \
         simulation, exactly the resilience reduction the paper's closing \
         remark predicts.",
    );
}
