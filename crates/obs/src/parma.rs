//! ParMA iteration recorder.
//!
//! `parma::improve` drives one diffusion loop per entity type in priority
//! order; the paper's Fig 12 is exactly the trajectory of that loop. This
//! module records it: per-iteration global imbalance, how many elements were
//! planned and how many actually moved, and why each stage stopped
//! (converged, stagnated, no candidates, iteration cap).
//!
//! The recorder is thread-local like everything in this crate. `improve`
//! feeds it values that are already world-global (gathered loads, allreduced
//! plan sizes), so every rank records an identical trace and rank 0's copy
//! is canonical — [`take`] on rank 0 after the collective returns is the
//! pattern the bench binaries use.

use std::cell::RefCell;

/// One diffusion iteration of one balancing stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterSample {
    /// Iteration number within the stage (1-based).
    pub iter: u32,
    /// Global imbalance % of the balanced type at iteration entry.
    pub imbalance_pct: f64,
    /// Elements scheduled for migration world-wide after admission.
    pub planned: u64,
    /// Elements actually migrated world-wide.
    pub moved: u64,
}

/// Why a balancing stage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Imbalance reached the tolerance.
    Converged,
    /// Three consecutive iterations without meaningful progress (§III-B's
    /// motivation for heavy part splitting).
    Stagnated,
    /// No part could schedule any migration.
    NoCandidates,
    /// The per-type iteration cap was hit.
    MaxIters,
}

impl StopReason {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::Stagnated => "stagnated",
            StopReason::NoCandidates => "no_candidates",
            StopReason::MaxIters => "max_iters",
        }
    }
}

/// One entity-type balancing stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace {
    /// The balanced entity type ("Vtx", "Edge", ...).
    pub dim: String,
    /// Imbalance % at stage entry.
    pub initial_pct: f64,
    /// Imbalance % at stage exit.
    pub final_pct: f64,
    /// Why the stage stopped.
    pub stop: StopReason,
    /// The per-iteration trajectory.
    pub iters: Vec<IterSample>,
}

/// One full `improve` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParmaTrace {
    /// Caller-supplied label (e.g. the test/priority being run).
    pub label: String,
    /// Stages in balancing order.
    pub stages: Vec<StageTrace>,
    /// Wall-clock seconds (max over ranks).
    pub seconds: f64,
    /// Total elements migrated.
    pub elements_moved: u64,
}

#[derive(Default)]
struct RecState {
    current: Option<ParmaTrace>,
    stage: Option<StageTrace>,
    done: Vec<ParmaTrace>,
}

thread_local! {
    static REC: RefCell<RecState> = RefCell::new(RecState::default());
}

/// Begin recording an `improve` run. An unfinished previous run is dropped.
pub fn begin(label: &str) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stage = None;
        r.current = Some(ParmaTrace {
            label: label.to_string(),
            stages: Vec::new(),
            seconds: 0.0,
            elements_moved: 0,
        });
    });
}

/// Begin a balancing stage for entity type `dim`.
pub fn stage_begin(dim: &str, initial_pct: f64) {
    REC.with(|r| {
        r.borrow_mut().stage = Some(StageTrace {
            dim: dim.to_string(),
            initial_pct,
            final_pct: initial_pct,
            stop: StopReason::Converged,
            iters: Vec::new(),
        });
    });
}

/// Record one diffusion iteration of the current stage.
pub fn iter(imbalance_pct: f64, planned: u64, moved: u64) {
    REC.with(|r| {
        if let Some(stage) = r.borrow_mut().stage.as_mut() {
            let iter = stage.iters.len() as u32 + 1;
            stage.iters.push(IterSample {
                iter,
                imbalance_pct,
                planned,
                moved,
            });
        }
    });
}

/// End the current stage.
pub fn stage_end(final_pct: f64, stop: StopReason) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(mut stage) = r.stage.take() {
            stage.final_pct = final_pct;
            stage.stop = stop;
            if let Some(cur) = r.current.as_mut() {
                cur.stages.push(stage);
            }
        }
    });
}

/// End the run begun by [`begin`], moving it to the completed list.
pub fn end(seconds: f64, elements_moved: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stage = None;
        if let Some(mut cur) = r.current.take() {
            cur.seconds = seconds;
            cur.elements_moved = elements_moved;
            r.done.push(cur);
        }
    });
}

/// Drain this thread's completed traces.
pub fn take() -> Vec<ParmaTrace> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().done))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_a_full_run() {
        let _ = take();
        begin("t1");
        stage_begin("Vtx", 40.0);
        iter(40.0, 100, 90);
        iter(12.0, 30, 30);
        stage_end(4.0, StopReason::Converged);
        stage_begin("Rgn", 6.0);
        stage_end(6.0, StopReason::NoCandidates);
        end(1.25, 120);
        let traces = take();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.label, "t1");
        assert_eq!(t.stages.len(), 2);
        assert_eq!(t.stages[0].iters.len(), 2);
        assert_eq!(t.stages[0].iters[1].iter, 2);
        assert_eq!(t.stages[0].stop, StopReason::Converged);
        assert_eq!(t.stages[1].stop, StopReason::NoCandidates);
        assert_eq!(t.elements_moved, 120);
        assert!(take().is_empty());
    }
}
