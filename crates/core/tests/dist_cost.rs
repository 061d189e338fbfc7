//! Cost shape of `distribute`, without a clock: a rank's work follows the
//! parts it holds. A tet box cut in two is distributed onto two ranks at two
//! mesh sizes, and the allocator calls `distribute` makes per entity it
//! builds must stay under one bound at both. Counted, not timed, so it holds
//! on any machine.
//!
//! Measured: 0.32 allocator calls per built entity at `6³` cells (2 103 for
//! 6 542 entities) and 0.22 at `12³` (10 601 for 48 506) in a release build,
//! 2 103 and 10 589 in a debug build: the parts' own storage growing, the
//! stitch's frames, and one label array and one stamp array per dimension
//! over the serial index space. While every rank computed the residence of
//! every serial entity into a `Vec` of its own and a hash map, and pushed
//! each closure entity once per element around it, a `distribute` made 4.20
//! (27 461) and 4.09 (198 433).

use pumi_core::{distribute, PartMap};
use pumi_meshgen::tet_box;
use pumi_pcu::execute;
use pumi_util::PartId;
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

/// What one `distribute` cost the world.
#[derive(Debug)]
struct Cost {
    /// Entities (every dimension) the parts hold afterwards, all parts.
    built: u64,
    /// Allocator calls during the call, all ranks.
    allocs: u64,
}

impl Cost {
    fn per_entity(&self) -> f64 {
        self.allocs as f64 / self.built as f64
    }
}

/// An `n³`-cell tet box cut at x = 0.5 into parts 0 and 1 on two ranks.
fn distribute_two(n: usize) -> Cost {
    let out = execute(2, move |c| {
        let serial = tet_box(n, n, n, 1.0, 1.0, 1.0);
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            labels[e.idx()] = (serial.centroid(e)[0] >= 0.5) as PartId;
        }
        c.barrier();
        let before = ALLOCS.load(Ordering::Relaxed);
        c.barrier();
        let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        c.barrier();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let built = dm.global_sum(c, |p| p.entity_counts().iter().sum::<usize>() as u64);
        Cost { built, allocs }
    });
    out.into_iter().next().expect("rank 0")
}

#[test]
fn distribute_allocates_per_entity_not_per_serial_entity() {
    let (small, big) = (distribute_two(6), distribute_two(12));
    println!(
        "{small:?} {:.3}/entity -> {big:?} {:.3}/entity", // shown with --nocapture
        small.per_entity(),
        big.per_entity()
    );
    assert!(
        big.built >= 7 * small.built,
        "{small:?} -> {big:?}: the mesh did not grow"
    );
    for cost in [&small, &big] {
        assert!(
            cost.per_entity() <= 0.35,
            "{:.3} allocations per built entity: {cost:?}",
            cost.per_entity()
        );
    }
}
