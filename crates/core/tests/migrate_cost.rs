//! Cost shape of `migrate`, without a clock: a migration costs what moves,
//! not what the part boundary holds. The same four-triangle swap across a
//! two-part strip is made on an `8 × 8` grid and on an `8 × 64` grid cut
//! along its long side — eight times the boundary, the same closures — and
//! must send the same bytes and make the same number of allocations, up to a
//! constant. Counted, not timed, so it holds on any machine.
//!
//! The measured call is the second one, so it also shows that a warm call
//! allocates nothing in proportion to the part: `migrate` keeps its slot
//! tables between calls and clears only what the last call set. Release
//! build, both grids: 241 allocator calls asking for 16 948 bytes. A variant
//! that makes its residence table afresh each call (sized by the part's
//! slots) asks for 18 900 bytes on `8 × 8` and 30 996 on `8 × 64`, and fails
//! here; its allocator calls alone (245 on both) would not show it.

use pumi_core::{distribute, migrate, DistMesh, MigrationPlan, PartMap};
use pumi_meshgen::tri_rect;
use pumi_pcu::execute;
use pumi_util::{FxHashMap, PartId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls to `alloc` and `realloc`, on every thread of the process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes those calls asked for (a `realloc` counts its new size).
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one `migrate` call cost the world.
#[derive(Debug)]
struct Cost {
    /// `Comm::traffic()` byte delta of the call, on-node plus off-node.
    bytes: u64,
    /// Allocator calls during the call, all ranks.
    allocs: u64,
    /// Bytes those allocator calls asked for, all ranks.
    alloc_bytes: u64,
    /// Shared entities per part before the call: the boundary's size.
    boundary: u64,
}

/// The plan moving every element of `part` whose centroid lies in
/// x ∈ [lo, lo + 1], y ∈ [0, 2] to `to`: four triangles.
fn band(dm: &DistMesh, pid: PartId, lo: f64, to: PartId) -> FxHashMap<PartId, MigrationPlan> {
    let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
    let Some(part) = dm.parts.iter().find(|p| p.id == pid) else {
        return plans;
    };
    let plan = plans.entry(pid).or_default();
    for e in part.mesh.elems() {
        let x = part.mesh.centroid(e);
        if x[0] > lo && x[0] < lo + 1.0 && x[1] < 2.0 {
            plan.send(e, to);
        }
    }
    assert_eq!(plan.len(), 4);
    plans
}

/// Unit cells, `8 × n`, cut at x = 4 into parts 0 and 1 on two ranks. A
/// warm-up call swaps the four triangles of the cells in x ∈ [3, 4] and
/// x ∈ [4, 5], y ∈ [0, 2] across the cut; the measured call swaps them
/// back — the same closures whatever `n` is.
fn swap_back(n: usize) -> Cost {
    let out = execute(2, move |c| {
        let serial = tri_rect(8, n, 8.0, n as f64);
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            labels[e.idx()] = (serial.centroid(e)[0] >= 4.0) as PartId;
        }
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        let boundary = dm.parts[0].shared_entities().len() as u64;
        let me = c.rank() as PartId;
        let there = [3.0, 4.0][c.rank()];
        let there = band(&dm, me, there, 1 - me);
        let warm = migrate(c, &mut dm, &there);
        assert_eq!(warm.elements_moved, 8);
        let back = band(&dm, me, [4.0, 3.0][c.rank()], 1 - me);
        c.barrier();
        let sent = c.traffic();
        let (allocs, bytes) = (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        c.barrier();
        let stats = migrate(c, &mut dm, &back);
        c.barrier();
        let now = c.traffic();
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
        let alloc_bytes = BYTES.load(Ordering::Relaxed) - bytes;
        assert_eq!(stats.elements_moved, 8);
        Cost {
            bytes: (now.on_node_bytes + now.off_node_bytes)
                - (sent.on_node_bytes + sent.off_node_bytes),
            allocs,
            alloc_bytes,
            boundary,
        }
    });
    out.into_iter().next().expect("rank 0")
}

#[test]
fn a_longer_boundary_costs_nothing_when_the_same_elements_move() {
    let (small, big) = (swap_back(8), swap_back(64));
    println!("{small:?} -> {big:?}"); // shown with --nocapture
    assert!(
        big.boundary >= 7 * small.boundary,
        "{small:?} -> {big:?}: the boundary did not grow 7x"
    );
    // Same records, same links, same frames: only gid and index values
    // differ, and they are fixed-width on the wire.
    assert!(
        big.bytes <= small.bytes + 64,
        "bytes grew with the boundary: {small:?} -> {big:?}"
    );
    // A few buffer doublings at most, never one allocation per boundary entity.
    assert!(
        big.allocs <= small.allocs + 32,
        "allocations grew with the boundary: {small:?} -> {big:?}"
    );
    // A warm call keeps its slot tables: one table of the part's slots,
    // made per call, would be thousands of bytes more on the big grid.
    assert!(
        big.alloc_bytes <= small.alloc_bytes + 512,
        "allocated bytes grew with the part: {small:?} -> {big:?}"
    );
}
