//! Allocation guard for the halo sync: a steady-state `sync` allocates per
//! peer and per exchange, never per synced node. Counted, not timed, so it
//! holds on any machine.

use pumi_core::overlap::{Overlap, Reduction};
use pumi_core::{distribute, PartMap};
use pumi_field::{dist_field, Field, FieldShape, FieldSync};
use pumi_meshgen::tri_rect;
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

const SYNCS: u64 = 8;

/// World-wide allocations per sync, and synced records per sync, of a
/// depth-1 `Add` sync of a 3-component vertex field on an `8 × n` grid cut
/// along its long side into two parts on two ranks.
fn steady_state(n: usize) -> (u64, u64) {
    let out = execute(2, move |c| {
        let serial = tri_rect(8, n, 1.0, 1.0);
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            labels[e.idx()] = (serial.centroid(e)[0] >= 0.5) as PartId;
        }
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        let mut ov = Overlap::from_dist(&dm);
        ov.grow(c, &mut dm, 1);
        let mut fields = dist_field(&dm, &Field::new("u", FieldShape::Linear, 3));
        fields[0].fill(&dm.parts[0].mesh, &[1.0, 2.0, 3.0]);
        // Warm-up: message buffers reach their size and return to the pool.
        for _ in 0..3 {
            fields.sync(c, &dm, &ov, Reduction::Add);
        }
        c.barrier();
        let before = ALLOCS.load(Ordering::Relaxed);
        c.barrier();
        for _ in 0..SYNCS {
            fields.sync(c, &dm, &ov, Reduction::Add);
        }
        c.barrier();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let vertex_links = (0..ov.num_slots())
            .flat_map(|s| ov.leaves_sorted(s))
            .filter(|(e, _)| e.dim() == Dim::Vertex)
            .count() as u64;
        (allocs / SYNCS, 2 * c.allreduce_sum_u64(vertex_links))
    });
    out[0]
}

#[test]
fn sync_allocations_do_not_grow_with_the_mesh() {
    let (small_allocs, small_records) = steady_state(8);
    let (big_allocs, big_records) = steady_state(64);
    assert!(
        big_records >= 7 * small_records,
        "{small_records} -> {big_records} records: the 8x mesh does not sync 7x the nodes"
    );
    // Same peers, same number of exchanges: the counts may differ by a few
    // buffer doublings, not by a multiple of the records.
    assert!(
        big_allocs <= small_allocs + 16,
        "{small_allocs} allocations per sync at {small_records} records, \
         {big_allocs} at {big_records}"
    );
}
