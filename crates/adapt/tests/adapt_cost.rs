//! Cost shape of the cavity operations, without a clock (in the manner of
//! `crates/core/tests/migrate_cost.rs`): an operation costs its cavity, and
//! a vetoed cavity costs nothing.
//!
//! * The serial kernels work on sweep-owned buffers and slot-indexed tags,
//!   so a split or a collapse makes a bounded, small number of allocator
//!   calls — what remains is amortised growth of the mesh's own arrays and
//!   of the refinement heap. The limits are half of what the kernels made
//!   when every adjacency query, vertex list and tag value was a fresh
//!   `Vec` (39 per 2-D split, 99 per 2-D collapse, 204 per 3-D split).
//! * The part-boundary veto is one load from a table built from the
//!   boundary outward, so a distributed coarsen round in which every short
//!   edge is vetoed makes the same number of allocator calls, up to a
//!   constant, on a strip eight times as long.
//!
//! Counted, not timed, so it holds on any machine.

use pumi_adapt::dist::{adapt_dist, AdaptOpts};
use pumi_adapt::{coarsen, refine, CoarsenOpts, RefineOpts, SizeField};
use pumi_core::{distribute, PartMap};
use pumi_mesh::Mesh;
use pumi_meshgen::{tet_box, tri_rect};
use pumi_pcu::execute;
use pumi_util::{PartId, TagKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Calls to `alloc` and `realloc`, on every thread of the process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The counter is process-wide and `cargo test` runs tests on parallel
/// threads: every test holds this while it counts.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `f` makes, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Two element tags, as the adaptive loop carries (weight and branch).
fn tag_elements(mesh: &mut Mesh) {
    let w = mesh.tags_mut().declare("w", TagKind::Double, 1);
    let b = mesh.tags_mut().declare("b", TagKind::Int, 1);
    for e in mesh.snapshot(mesh.elem_dim_t()) {
        mesh.tags_mut().set_dbl(w, e, 1.0);
        mesh.tags_mut().set_int(b, e, e.idx() as i64);
    }
}

#[test]
fn a_split_and_a_collapse_cost_their_cavity_2d() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let h0 = 1.0 / 48.0;
    let mut mesh = tri_rect(48, 48, 1.0, 1.0);
    tag_elements(&mut mesh);
    let (stats, allocs) = counted(|| {
        refine(
            &mut mesh,
            &SizeField::uniform(h0 / 2.0),
            None,
            RefineOpts::default(),
        )
    });
    let per_split = allocs as f64 / stats.splits as f64;
    println!(
        "2-D: {} splits, {per_split:.2} allocations each",
        stats.splits
    );
    assert!(stats.splits > 5_000, "{stats:?}");
    assert!(per_split <= 19.0, "{per_split:.2} allocations per split");

    let (stats, allocs) = counted(|| {
        coarsen(
            &mut mesh,
            &SizeField::uniform(2.0 * h0),
            CoarsenOpts::default(),
        )
    });
    let per_collapse = allocs as f64 / stats.collapses as f64;
    println!(
        "2-D: {} collapses ({} rejected), {per_collapse:.2} allocations each",
        stats.collapses, stats.rejected
    );
    assert!(stats.collapses > 5_000, "{stats:?}");
    assert!(
        per_collapse <= 49.0,
        "{per_collapse:.2} allocations per collapse"
    );
}

#[test]
fn a_split_costs_its_cavity_3d() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let h0 = 1.0 / 8.0;
    let mut mesh = tet_box(8, 8, 8, 1.0, 1.0, 1.0);
    tag_elements(&mut mesh);
    let (stats, allocs) = counted(|| {
        refine(
            &mut mesh,
            &SizeField::uniform(h0 / 2.0),
            None,
            RefineOpts::default(),
        )
    });
    let per_split = allocs as f64 / stats.splits as f64;
    println!(
        "3-D: {} splits, {per_split:.2} allocations each",
        stats.splits
    );
    assert!(stats.splits > 2_000, "{stats:?}");
    assert!(per_split <= 100.0, "{per_split:.2} allocations per split");
}

/// What one all-vetoed `adapt_dist` round cost rank 0's world.
#[derive(Debug)]
struct Cost {
    /// Allocator calls during the call, all ranks.
    allocs: u64,
    /// Short edges the round left alone because of the boundary.
    vetoed: u64,
}

/// A strip two unit cells wide and `n` long, cut along its length into two
/// parts on two ranks, asked to coarsen to four times its spacing. Every
/// triangle touches the cut, so every cavity does: each short edge is
/// vetoed and nothing may collapse.
fn vetoed_round(n: usize) -> Cost {
    let out = execute(2, move |c| {
        let serial = tri_rect(2, n, 2.0, n as f64);
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            labels[e.idx()] = (serial.centroid(e)[0] >= 1.0) as PartId;
        }
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        let opts = AdaptOpts::new().coarsen(CoarsenOpts::default());
        c.barrier();
        let before = ALLOCS.load(Ordering::Relaxed);
        c.barrier();
        let stats = adapt_dist(c, &mut dm, &SizeField::uniform(4.0), opts);
        c.barrier();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!((stats.splits, stats.collapses), (0, 0), "{stats:?}");
        Cost {
            allocs,
            vetoed: stats.vetoed_collapses,
        }
    });
    out.into_iter().next().expect("rank 0")
}

#[test]
fn a_vetoed_cavity_costs_no_allocation() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (small, big) = (vetoed_round(8), vetoed_round(64));
    println!("{small:?} -> {big:?}"); // shown with --nocapture
    assert!(
        small.vetoed > 0 && big.vetoed >= 7 * small.vetoed,
        "{small:?} -> {big:?}: the vetoes did not grow 7x"
    );
    // The edge snapshot, the veto table and the reduction buffers grow as
    // single blocks; nothing is allocated per vetoed edge.
    assert!(
        big.allocs <= small.allocs + 32,
        "allocations grew with the vetoes: {small:?} -> {big:?}"
    );
}
