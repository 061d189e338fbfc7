//! Cost shape of recording, without a clock: once a thread has entered a
//! span path, entering and dropping that span and recording traffic and
//! frame digests under it allocate nothing. Every PCU message pays one
//! `record_traffic` and every received frame one `record_frame_digest`, so
//! an allocation here would be paid per envelope. Counted, not timed, so it
//! holds on any machine.

use pumi_obs::metrics::{record_frame_digest, record_traffic, take_digests, take_traffic, Link};
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

const N: u64 = 10_000;

/// One span entry with one message sent and one frame received under it.
fn round(i: u64) {
    let _outer = pumi_obs::span!("phase");
    let _g = pumi_obs::span!("pcu.exchange");
    record_traffic(Link::OffNode, 8);
    record_frame_digest(Link::OnNode, i);
}

#[test]
fn recording_under_an_entered_path_allocates_nothing() {
    // The first entry interns both paths and grows the span stack.
    round(0);
    // The counter sees every thread, and the harness may still be
    // allocating on its own as the test starts: the fewest calls over
    // three passes is what recording costs.
    let allocs = (0..3)
        .map(|pass| {
            let before = ALLOCS.load(Ordering::Relaxed);
            for i in 1..=N {
                round(pass * N + i);
            }
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min();
    assert_eq!(allocs, Some(0), "allocator calls over {N} rounds");

    // Interning moved no row: everything lands under the joined path.
    let spans = pumi_obs::span::take();
    let counts: Vec<(&str, u64)> = spans.iter().map(|(p, s)| (p.as_str(), s.count)).collect();
    let rounds = 3 * N + 1;
    assert_eq!(
        counts,
        [("phase", rounds), ("phase/pcu.exchange", rounds)],
        "span rows"
    );
    let traffic = take_traffic();
    assert_eq!(traffic.len(), 1);
    assert_eq!(traffic[0].phase, "phase/pcu.exchange");
    assert_eq!(traffic[0].link, Link::OffNode);
    assert_eq!(
        (traffic[0].totals.msgs, traffic[0].totals.bytes),
        (rounds, 8 * rounds)
    );
    let digests = take_digests();
    assert_eq!(digests.len(), 1);
    assert_eq!(digests[0].phase, "phase/pcu.exchange");
    assert_eq!(digests[0].frames, rounds);
    assert_eq!(digests[0].digest, (0..rounds).sum::<u64>());
}
