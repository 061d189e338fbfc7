//! Cost shape of `migrate`, without a clock: a migration costs what moves,
//! not what the part boundary holds. The same four-triangle move across a
//! two-part strip is made on an `8 × 8` grid and on an `8 × 64` grid cut
//! along its long side — eight times the boundary, the same closure — and
//! must send the same bytes and make the same number of allocations, up to a
//! constant. Counted, not timed, so it holds on any machine.

use pumi_core::{distribute, migrate, MigrationPlan, PartMap};
use pumi_meshgen::tri_rect;
use pumi_pcu::execute;
use pumi_util::{FxHashMap, PartId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls to `alloc` and `realloc`, on every thread of the process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

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

/// What one `migrate` call cost the world.
#[derive(Debug)]
struct Cost {
    /// `Comm::traffic()` byte delta of the call, on-node plus off-node.
    bytes: u64,
    /// Allocator calls during the call, all ranks.
    allocs: u64,
    /// Shared entities per part before the call: the boundary's size.
    boundary: u64,
}

/// Unit cells, `8 × n`, cut at x = 4 into parts 0 and 1 on two ranks; part 0
/// sends the four triangles of the two cells in x ∈ [3, 4], y ∈ [0, 2] —
/// the same closure whatever `n` is.
fn move_four(n: usize) -> Cost {
    let out = execute(2, move |c| {
        let serial = tri_rect(8, n, 8.0, n as f64);
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            labels[e.idx()] = (serial.centroid(e)[0] >= 4.0) as PartId;
        }
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        let boundary = dm.parts[0].shared_entities().len() as u64;
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        if c.rank() == 0 {
            let part = dm.part(0);
            let plan = plans.entry(0).or_default();
            for e in part.mesh.elems() {
                let x = part.mesh.centroid(e);
                if x[0] > 3.0 && x[1] < 2.0 {
                    plan.send(e, 1);
                }
            }
            assert_eq!(plan.len(), 4);
        }
        c.barrier();
        let (sent, allocs) = (c.traffic(), ALLOCS.load(Ordering::Relaxed));
        c.barrier();
        let stats = migrate(c, &mut dm, &plans);
        c.barrier();
        let (now, allocs) = (c.traffic(), ALLOCS.load(Ordering::Relaxed) - allocs);
        assert_eq!(stats.elements_moved, 4);
        Cost {
            bytes: (now.on_node_bytes + now.off_node_bytes)
                - (sent.on_node_bytes + sent.off_node_bytes),
            allocs,
            boundary,
        }
    });
    out.into_iter().next().expect("rank 0")
}

#[test]
fn a_longer_boundary_costs_nothing_when_the_same_elements_move() {
    let (small, big) = (move_four(8), move_four(64));
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
}
