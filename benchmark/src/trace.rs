//! The benchmark's own span recorder.
//!
//! One [`Recorder`] per thread (rank thread, client thread, or the driver)
//! collects a span around every call the benchmark makes into a layer's
//! public function. Spans stay in per-thread memory until the run ends;
//! nothing here touches the library — layers are timed from outside.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Which part of a run a span belongs to. Only `Timed` spans feed the
/// per-step layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Everything before the first warm-up step.
    Setup,
    /// Warm-up steps (excluded from step metrics; step 0 is the cold step).
    Warmup,
    /// Timed steps.
    Timed,
    /// Correctness oracles, outside every timed region.
    Check,
    /// One-off probes of the traced run.
    Probe,
}

impl Phase {
    /// Lower-case label used in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Warmup => "warmup",
            Phase::Timed => "timed",
            Phase::Check => "check",
            Phase::Probe => "probe",
        }
    }
}

/// Track id of the driver thread in a trace (rank threads use their rank).
pub const DRIVER: u32 = 9999;

/// One recorded call: `{name: "<layer>.<fn>", rank, step, start, end, parent}`.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<fn>`; the root span of a timed segment is `step`.
    pub name: &'static str,
    /// Rank (or client, or [`DRIVER`]) whose thread made the call.
    pub rank: u32,
    /// Phase the call was made in.
    pub phase: Phase,
    /// Step id shared by every span of one step, across ranks.
    pub step: u32,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<u32>,
}

impl Span {
    /// Inclusive duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder. With `on == false` every call is a direct
/// call-through, so untraced runs pay one branch per library call.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    rank: u32,
    phase: Cell<Phase>,
    step: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Recorder {
    /// A recorder for thread `rank`, measuring from `epoch`.
    pub fn new(on: bool, epoch: Instant, rank: u32) -> Recorder {
        Recorder {
            on,
            epoch,
            rank,
            phase: Cell::new(Phase::Setup),
            step: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The shared epoch (so helper threads can record on the same clock).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Label the spans that follow.
    pub fn at(&self, phase: Phase, step: u32) {
        self.phase.set(phase);
        self.step.set(step);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.open_span(name, self.now_ns());
        let out = f();
        self.close_span(idx, self.now_ns());
        out
    }

    /// Record a span with explicit bounds (for an interval whose end is only
    /// known later, e.g. "until the slowest rank finished reading").
    pub fn push(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.push_chain(&[(name, start_ns, end_ns)]);
    }

    /// Record explicit-bound spans nested inside one another: each entry is
    /// the parent of the next.
    pub fn push_chain(&self, chain: &[(&'static str, u64, u64)]) {
        if self.on {
            let opened: Vec<(u32, u64)> = chain
                .iter()
                .map(|&(name, start, end)| (self.open_span(name, start), end))
                .collect();
            for &(idx, end) in opened.iter().rev() {
                self.close_span(idx, end);
            }
        }
    }

    fn open_span(&self, name: &'static str, start_ns: u64) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len() as u32;
        spans.push(Span {
            name,
            rank: self.rank,
            phase: self.phase.get(),
            step: self.step.get(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.borrow().last().copied(),
        });
        self.open.borrow_mut().push(idx);
        idx
    }

    fn close_span(&self, idx: u32, end_ns: u64) {
        self.spans.borrow_mut()[idx as usize].end_ns = end_ns;
        let popped = self.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(idx), "spans must close in LIFO order");
    }

    /// The thread's spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span of one thread's list: its duration minus the
/// part of that interval its direct children cover (children are clipped to
/// the parent and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                kids[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in k.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Render per-thread span lists as Chrome trace-event JSON (`ph: "X"`
/// complete events, µs timestamps, one `pid` per block, one `tid` per
/// rank).
pub fn chrome_json(blocks: &[(usize, &[Vec<Span>])]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (block, tracks) in blocks {
        for track in tracks.iter() {
            for (idx, s) in track.iter().enumerate() {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\
                     \"args\":{{\"id\":{},\"parent\":{},\"step\":{},\"phase\":\"{}\"}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    block,
                    s.rank,
                    idx,
                    parent,
                    s.step,
                    s.phase.label()
                ));
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t.x",
            rank: 0,
            phase: Phase::Timed,
            step: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 40, Some(0)),  // child a
            span(30, 60, Some(0)),  // child b overlaps a: union is 10..60
            span(15, 20, Some(1)),  // grandchild: only reduces child a
            span(90, 130, Some(0)), // child c sticks out: clipped to 90..100
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 50 - 10);
        assert_eq!(st[1], 30 - 5);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 5);
        assert_eq!(st[4], 40);
    }

    #[test]
    fn recorder_nests_and_labels() {
        let r = Recorder::new(true, Instant::now(), 3);
        r.at(Phase::Timed, 7);
        r.span("a.outer", || {
            r.span("b.inner", || {});
            r.push("c.explicit", 1, 2);
        });
        let spans = r.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rank == 3 && s.step == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let r = Recorder::new(false, Instant::now(), 0);
        assert_eq!(r.span("a.b", || 5), 5);
        r.push("a.c", 0, 1);
        assert!(r.into_spans().is_empty());
    }
}
