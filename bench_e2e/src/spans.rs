//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (name, start, end, parent, request id), kept
//! in memory and written out once the session ends. With tracing off
//! every call is a no-op, so the untraced run pays one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Generator idle time: excluded from the uncovered share of a phase.
pub(crate) const IDLE: &str = "gen.idle";

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `stream.ingest_event`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span serves (event or forecast index; 0 = none).
    pub req: u64,
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

/// The recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// True when spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.now();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let now = self.now();
            self.spans[idx].end = now;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Record an already-measured span of `dur_ns` ending now, under the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, dur_ns: u64, req: u64) {
        if !self.on {
            return;
        }
        let end = self.now();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start: end.saturating_sub(dur_ns),
            end,
            parent,
            req,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated dump: `id name start_ns end_ns parent req`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\treq\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            );
        }
        out
    }
}

/// Per-name totals: `(calls, total ns, self ns)`. A span's self time is
/// its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end - s.start;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// For every span named `phase`, the share of its wall time that no
/// direct child covers, generator idle excluded from both sides.
/// Returns `None` when no such span exists or it is all idle.
pub fn uncovered_share(spans: &[Span], phase: &str) -> Option<f64> {
    let mut wall = 0u64;
    let mut covered = 0u64;
    let mut idle = 0u64;
    let phases: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == phase)
        .map(|(i, _)| i)
        .collect();
    for &p in &phases {
        wall += spans[p].end - spans[p].start;
    }
    for s in spans {
        let Some(parent) = s.parent else { continue };
        if phases.contains(&parent) {
            if s.name == IDLE {
                idle += s.end - s.start;
            } else {
                covered += s.end - s.start;
            }
        }
    }
    let busy = wall.checked_sub(idle)?;
    (busy > 0).then(|| busy.saturating_sub(covered) as f64 / busy as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("phase.live", 0, 100, None),
            span("stream.ingest_event", 10, 30, Some(0)),
            span("stream.maintain", 40, 80, Some(0)),
            span("shard.forecast", 50, 60, Some(2)),
            span(IDLE, 80, 95, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["phase.live"], (1, 100, 25));
        assert_eq!(t["stream.maintain"], (1, 40, 30));
        assert_eq!(t["shard.forecast"], (1, 10, 10));
        // Busy = 100 - 15 idle; covered = 20 + 40; uncovered = 25 / 85.
        let share = uncovered_share(&spans, "phase.live").expect("phase present");
        assert!((share - 25.0 / 85.0).abs() < 1e-12);
        assert_eq!(uncovered_share(&spans, "phase.load"), None);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("phase.load", 0);
        let inner = t.begin("stream.ingest_event", 7);
        t.end(inner);
        t.record("sqlproc.fingerprint", 5, 0);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].req, 7);
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end >= s[1].end);
        assert!(t.to_tsv().lines().count() == 4);

        let mut off = Tracer::new(false);
        let o = off.begin("phase.load", 0);
        off.end(o);
        off.record("x", 1, 0);
        assert!(off.spans().is_empty());
    }
}
