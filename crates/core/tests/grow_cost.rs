//! Cost shape of `Overlap::grow`, without a clock: a grow costs what it
//! ships. A depth-2 vertex-bridged grow on a tet box cut in two is made at
//! two mesh sizes, and the allocator calls it makes per ghost entity it
//! creates must stay under one bound at both. Counted, not timed, so it
//! holds on any machine.
//!
//! Measured: 0.32 allocator calls per ghost entity at `6³` cells (1 294 for
//! 4 040 ghosts) and 0.15 at `12³` (2 270 for 15 560) in a release build,
//! 1 286 and 2 262 in a debug build. What is left is mostly the mesh's own
//! storage: vertex up-adjacency lists outgrowing their six inline slots, and
//! arrays and hash tables growing. While every ghosted root's holder list
//! was a heap `Vec` of its own, taken by the ack that recorded its first
//! holder, a grow made 1.43 (5 793) and 1.18 (18 409). While
//! `Part::ghost_entities_owner_side`
//! copied each holder list into a `Vec` of its own, a grow made 2.44
//! (9 855) and 2.18 (33 993). While a third exchange per layer re-rooted the
//! ghosts a non-owner had shipped, a grow made 2.45 (9 888) and 2.19
//! (34 036). While the unpack decoded one record with two heap `Vec`s per
//! entity, resolved its vertices into a third and walked each new entity's
//! closure for entities without a gid (a fourth), a grow made 6.46 (26 080)
//! and 6.34 (98 612); before the selection read one star table per part,
//! 8.30 (33 512) and 8.26 (128 538).

use pumi_core::overlap::Overlap;
use pumi_core::{distribute, PartMap};
use pumi_meshgen::tet_box;
use pumi_pcu::execute;
use pumi_util::{Dim, PartId};
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

/// What one depth-2 grow cost the world.
#[derive(Debug)]
struct Cost {
    /// Ghost entities (every dimension) the grow created, all parts.
    ghosts: u64,
    /// Allocator calls during the grow, all ranks.
    allocs: u64,
}

impl Cost {
    fn per_ghost(&self) -> f64 {
        self.allocs as f64 / self.ghosts as f64
    }
}

/// An `n³`-cell tet box cut at x = 0.5 into parts 0 and 1 on two ranks,
/// grown two vertex-bridged layers deep.
fn grow_two(n: usize) -> Cost {
    let out = execute(2, move |c| {
        let serial = tet_box(n, n, n, 1.0, 1.0, 1.0);
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            labels[e.idx()] = (serial.centroid(e)[0] >= 0.5) as PartId;
        }
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        let mut ov = Overlap::from_dist(&dm).with_bridge(Dim::Vertex);
        c.barrier();
        let before = ALLOCS.load(Ordering::Relaxed);
        c.barrier();
        ov.grow(c, &mut dm, 2);
        c.barrier();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let ghosts = dm.global_sum(c, |p| p.num_ghosts() as u64);
        Cost { ghosts, allocs }
    });
    out.into_iter().next().expect("rank 0")
}

#[test]
fn a_grow_allocates_per_ghost_not_per_neighbourhood() {
    let (small, big) = (grow_two(6), grow_two(12));
    println!(
        "{small:?} {:.2}/ghost -> {big:?} {:.2}/ghost", // shown with --nocapture
        small.per_ghost(),
        big.per_ghost()
    );
    assert!(
        big.ghosts >= 3 * small.ghosts,
        "{small:?} -> {big:?}: the halo did not grow"
    );
    for cost in [&small, &big] {
        assert!(
            cost.per_ghost() <= 0.35,
            "{:.2} allocations per ghost entity: {cost:?}",
            cost.per_ghost()
        );
    }
}
