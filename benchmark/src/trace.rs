//! Harness-side spans: recorded around calls into the layers' public
//! functions, kept in memory, aggregated and written out when the run ends.
//!
//! `am-obs` stays disabled throughout; nothing here touches the libraries.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Index of an interned span name.
pub type NameId = u16;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Interned name.
    pub name: NameId,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation (request, trial, block, search) the span belongs to;
    /// spans of one operation share it.
    pub op: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameStats {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl NameStats {
    /// Mean duration, 0 when nothing was recorded.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// The span recorder of one workload's traced repetition.
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Interns a span name; call once per name, outside the timed loop.
    pub fn name(&mut self, name: &'static str) -> NameId {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return i as NameId;
        }
        self.names.push(name);
        (self.names.len() - 1) as NameId
    }

    /// Sets the operation id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: NameId) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records `f` as a leaf span.
    pub fn span<T>(&mut self, name: NameId, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Pushes an already-timed span (tests and merged traces).
    #[cfg(test)]
    fn push_raw(&mut self, name: NameId, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Duration of a closed span.
    pub fn duration_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. A span's self time is its
    /// duration minus the durations of its direct children.
    pub fn aggregate(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(self.names[s.name as usize]).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Stats of one name (zeros when it never occurred).
    pub fn stats_of(&self, name: &str) -> NameStats {
        self.aggregate().get(name).copied().unwrap_or_default()
    }

    /// Writes the spans of operations `0..max_ops` as JSON array elements
    /// (one object per span: name, start, end, parent, workload, op), each
    /// preceded by `sep` handling so several workloads share one array.
    pub fn write_json(
        &self,
        out: &mut impl Write,
        workload: &str,
        max_ops: u32,
        first: &mut bool,
    ) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.op >= max_ops {
                continue;
            }
            if !std::mem::replace(first, false) {
                out.write_all(b",\n")?;
            }
            write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                self.names[s.name as usize], s.start_ns, s.end_ns
            )?;
            if s.parent == NO_PARENT {
                out.write_all(b"null")?;
            } else {
                write!(out, "{}", s.parent)?;
            }
            write!(out, ",\"workload\":\"{workload}\",\"op\":{}}}", s.op)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        let (root, a, b) = (t.name("root"), t.name("a"), t.name("b"));
        // root [0, 100) ── a [10, 40) ── b [15, 25)
        //               └─ a [50, 70)
        let r = t.push_raw(root, NO_PARENT, 0, 100);
        let a1 = t.push_raw(a, r, 10, 40);
        t.push_raw(b, a1, 15, 25);
        t.push_raw(a, r, 50, 70);
        let agg = t.aggregate();
        assert_eq!(
            agg["root"],
            NameStats {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            agg["a"],
            NameStats {
                count: 2,
                total_ns: 50,
                self_ns: 40
            },
            "grandchildren are subtracted from their parent only"
        );
        assert_eq!(agg["b"].self_ns, 10);
        assert_eq!(t.stats_of("missing"), NameStats::default());
        assert_eq!(agg["a"].mean_ns(), 25.0);
    }

    #[test]
    fn enter_exit_nest_and_stamp_the_operation() {
        let mut t = Tracer::new();
        let (outer, inner) = (t.name("outer"), t.name("inner"));
        assert_eq!(t.name("outer"), outer, "names intern");
        t.set_op(7);
        let o = t.enter(outer);
        let got = t.span(inner, || 42);
        t.exit(o);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, o);
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn json_keeps_the_first_operations_only() {
        let mut t = Tracer::new();
        let n = t.name("x");
        t.set_op(0);
        t.push_raw(n, NO_PARENT, 1, 2);
        t.set_op(5);
        t.push_raw(n, NO_PARENT, 3, 4);
        let mut buf = Vec::new();
        let mut first = true;
        t.write_json(&mut buf, "w", 5, &mut first).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"id\":0,\"name\":\"x\",\"start_ns\":1,\"end_ns\":2,\"parent\":null,\"workload\":\"w\",\"op\":0}"
        );
        assert!(!first);
    }
}
