//! Scoped phase timers.
//!
//! A span is a named scope: entering pushes onto a per-thread stack, dropping
//! the guard pops it and adds the inclusive elapsed time to the aggregate for
//! the span's *path* — the slash-joined names of every span on the stack, so
//! `migrate` calling `pcu.exchange` aggregates under
//! `"migrate/pcu.exchange"`. Paths keep caller context without any manual
//! plumbing, and [`metrics::record_traffic`](crate::metrics::record_traffic)
//! uses the innermost path to attribute message traffic to phases.
//!
//! Guards must drop in LIFO order — the natural result of scope-based use:
//!
//! ```
//! {
//!     let _g = pumi_obs::span!("migrate.pack");
//!     // ... work ...
//! } // elapsed time recorded here
//! ```
//!
//! Times are *inclusive*: a parent's total contains its children's. The
//! drain also reports each path's *self* time — its inclusive time less
//! that of the spans entered directly under it — computed from the
//! recorded tree, so it costs nothing while recording.
//!
//! Each thread interns every distinct path into a *slot* the first time it
//! is entered, and all per-path aggregates (this module's [`SpanStat`], the
//! traffic and frame-digest cells of [`metrics`](crate::metrics)) live in
//! that slot. Entering finds the slot among its parent's few children;
//! dropping and recording index the top frame's slot. After a path's first
//! entry none of them allocates, and dropping and recording compare no
//! strings. The drains map slots back to paths.

use crate::metrics::LinkTotals;
use std::cell::RefCell;
use std::time::Instant;

/// Aggregate for one span path on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total inclusive nanoseconds across entries.
    pub nanos: u64,
    /// Exclusive nanoseconds: `nanos` less the `nanos` of every span path
    /// entered directly under this one. Filled in by [`take`]; recording
    /// leaves it alone.
    pub self_nanos: u64,
}

/// Slot of the empty path: where recording outside any span lands.
const ROOT: usize = 0;

/// Everything recorded under one span path on one thread.
#[derive(Default)]
pub(crate) struct Slot {
    /// Slash-joined span names (`""` for [`ROOT`]).
    pub(crate) path: String,
    /// `(name, slot)` of each span entered directly under this path.
    children: Vec<(String, usize)>,
    stat: SpanStat,
    /// Messages sent under this path, per [`Link`](crate::metrics::Link) index.
    pub(crate) traffic: [LinkTotals; 3],
    /// (frames, wrapping hash sum) received under this path, per link.
    pub(crate) digests: [(u64, u64); 3],
}

struct Frame {
    start: Instant,
    slot: usize,
}

struct SpanState {
    stack: Vec<Frame>,
    slots: Vec<Slot>,
}

impl SpanState {
    /// Set every slot's self time from the inclusive times of its children.
    fn settle_self_time(&mut self) {
        for i in 0..self.slots.len() {
            let slots = &self.slots;
            let children: u64 = slots[i]
                .children
                .iter()
                .map(|&(_, c)| slots[c].stat.nanos)
                .sum();
            let stat = &mut self.slots[i].stat;
            stat.self_nanos = stat.nanos.saturating_sub(children);
        }
    }

    fn top(&self) -> usize {
        self.stack.last().map_or(ROOT, |f| f.slot)
    }

    /// The slot of span `name` entered under `parent`, interned on first use.
    fn child(&mut self, parent: usize, name: &str) -> usize {
        let known = self.slots[parent].children.iter().find(|(n, _)| n == name);
        if let Some(&(_, slot)) = known {
            return slot;
        }
        let path = if parent == ROOT {
            name.to_string()
        } else {
            format!("{}/{name}", self.slots[parent].path)
        };
        // A name holding '/' can join to a path reached another way; both
        // routes share one slot, so each path is one drained row.
        let slot = match self.slots.iter().position(|s| s.path == path) {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    path,
                    ..Slot::default()
                });
                self.slots.len() - 1
            }
        };
        self.slots[parent].children.push((name.to_string(), slot));
        slot
    }
}

thread_local! {
    static STATE: RefCell<SpanState> = RefCell::new(SpanState {
        stack: Vec::new(),
        slots: vec![Slot::default()],
    });
}

/// Guard returned by [`enter`]; records the elapsed time when dropped.
#[must_use = "a span only measures while its guard is alive"]
pub struct SpanGuard {
    _priv: (),
}

/// Enter a span named `name`. Prefer the [`span!`](crate::span!) macro.
pub fn enter(name: &str) -> SpanGuard {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.top();
        let slot = s.child(parent, name);
        s.stack.push(Frame {
            start: Instant::now(),
            slot,
        });
    });
    SpanGuard { _priv: () }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let frame = s.stack.pop().expect("span guard dropped twice");
            let stat = &mut s.slots[frame.slot].stat;
            stat.count += 1;
            stat.nanos += frame.start.elapsed().as_nanos() as u64;
        });
    }
}

/// Run `f` on the slot of the current span path.
pub(crate) fn with_slot<R>(f: impl FnOnce(&mut Slot) -> R) -> R {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let top = s.top();
        f(&mut s.slots[top])
    })
}

/// Drain one aggregate of every slot into rows sorted by path: `row` takes
/// what it reports out of the slot and pushes it. Slots stay interned, so
/// active spans keep aggregating into them.
pub(crate) fn drain<R>(mut row: impl FnMut(&mut Slot, &mut Vec<R>)) -> Vec<R> {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let mut order: Vec<usize> = (0..s.slots.len()).collect();
        order.sort_unstable_by(|&a, &b| s.slots[a].path.cmp(&s.slots[b].path));
        let mut rows = Vec::new();
        for slot in order {
            row(&mut s.slots[slot], &mut rows);
        }
        rows
    })
}

/// Drain this thread's aggregated spans, sorted by path, each with its
/// self time. Active (not yet dropped) spans are unaffected and will
/// aggregate afresh; a drain inside an active span can see its children's
/// time without its own, and reports its self time as zero, not negative.
pub fn take() -> Vec<(String, SpanStat)> {
    STATE.with(|s| s.borrow_mut().settle_self_time());
    drain(|slot, rows| {
        let stat = std::mem::take(&mut slot.stat);
        if stat.count > 0 {
            rows.push((slot.path.clone(), stat));
        }
    })
}

/// Enter a span scope: `let _g = pumi_obs::span!("migrate.pack");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_joins_paths() {
        let _ = take();
        {
            let _a = enter("outer");
            {
                let _b = enter("inner");
            }
            {
                let _b = enter("inner");
            }
        }
        let spans = take();
        let paths: Vec<&str> = spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner"]);
        assert_eq!(spans[1].1.count, 2);
        assert_eq!(spans[0].1.count, 1);
        assert!(
            spans[0].1.nanos >= spans[1].1.nanos,
            "parent time is inclusive"
        );
    }

    /// Self time is inclusive time less the direct children's, to the
    /// nanosecond: children plus self add up to the parent exactly, and a
    /// grandchild counts only against its own parent.
    #[test]
    fn children_plus_self_equal_inclusive() {
        let _ = take();
        let spin = || {
            let t = std::time::Instant::now();
            while t.elapsed().as_micros() < 50 {}
        };
        for _ in 0..3 {
            let _a = enter("outer");
            spin();
            {
                let _b = enter("left");
                spin();
                drop(enter("leaf"));
            }
            drop(enter("right"));
        }
        let spans: std::collections::BTreeMap<String, SpanStat> = take().into_iter().collect();
        let [outer, left, leaf, right] =
            ["outer", "outer/left", "outer/left/leaf", "outer/right"].map(|p| spans[p]);
        assert_eq!(outer.self_nanos + left.nanos + right.nanos, outer.nanos);
        assert_eq!(left.self_nanos + leaf.nanos, left.nanos);
        assert_eq!(
            (leaf.self_nanos, right.self_nanos),
            (leaf.nanos, right.nanos)
        );
        assert!(outer.self_nanos > 0 && left.self_nanos > 0);
    }

    #[test]
    fn a_slash_in_a_name_joins_the_same_path() {
        let _ = take();
        {
            let _a = enter("a");
            drop(enter("b"));
        }
        drop(enter("a/b"));
        let spans = take();
        assert_eq!(
            spans[1],
            (
                "a/b".to_string(),
                SpanStat {
                    count: 2,
                    ..spans[1].1
                }
            )
        );
    }

    #[test]
    fn take_drains() {
        let _ = take();
        drop(enter("x"));
        assert_eq!(take().len(), 1);
        assert!(take().is_empty());
    }

    #[test]
    fn macro_expands_to_guard() {
        let _ = take();
        {
            let _g = crate::span!("via-macro");
        }
        assert_eq!(take()[0].0, "via-macro");
    }
}
