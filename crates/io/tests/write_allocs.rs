//! Allocation guard for the checkpoint writer: a base write allocates per
//! part, per section and per chunk, never per entity, tag row or field
//! row. Counted, not timed, so it holds on any machine.
//!
//! The same job — `tri_rect(n, n)` cut into two parts on two ranks, one
//! `Double` tag on every face, one two-component vertex field — is written
//! at n = 24 and n = 96 (16× the entities). Each chunk flush allocates
//! the compressor's output block and its position table; everything else
//! the write allocates is the same at both sizes, up to a few buffer
//! doublings in the collectives. A writer that builds a `Vec` per edge and
//! face (their vertex gids), per shared entity (its residence set) or per
//! tag row (the value in exchange form) makes tens of thousands more calls
//! at n = 96 and fails here.

use pumi_core::{distribute, PartMap};
use pumi_field::{Field, FieldShape};
use pumi_io::format::PartFile;
use pumi_io::write_checkpoint;
use pumi_meshgen::tri_rect;
use pumi_pcu::execute;
use pumi_util::tag::TagKind;
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

/// Allocator calls a chunk flush makes: the compressed block and the
/// compressor's position table.
const PER_CHUNK: u64 = 2;

/// What one base write cost the world.
#[derive(Debug)]
struct Cost {
    /// Allocator calls during the write, both ranks.
    allocs: u64,
    /// Chunks in the written part files.
    chunks: u64,
    /// Entities of every dimension, both parts.
    entities: u64,
}

/// Write `tri_rect(n, n)` twice (a warm-up, then the measured write) and
/// count the second write.
fn base_write(n: usize) -> Cost {
    let dir = std::env::temp_dir().join(format!("pumi_io_write_allocs_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = execute(2, |c| {
        let serial = tri_rect(n, n, 1.0, 1.0);
        let d = serial.elem_dim_t();
        let mut labels = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            labels[e.idx()] = (serial.centroid(e)[0] >= 0.5) as PartId;
        }
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        let mut fields = Vec::new();
        for part in &mut dm.parts {
            let tid = part.mesh.tags_mut().declare("g:half", TagKind::Double, 1);
            let faces: Vec<_> = part.mesh.iter(Dim::Face).collect();
            for e in faces {
                let g = part.gid_of(e) as f64;
                part.mesh.tags_mut().set_dbl(tid, e, g * 0.5);
            }
            let mut f = Field::new("temp", FieldShape::Linear, 2);
            for v in part.mesh.iter(Dim::Vertex) {
                let x = part.mesh.coords(v);
                f.set(v, &[x[0] + x[1], x[0] - x[1]]);
            }
            fields.push(f);
        }
        write_checkpoint(c, &dm, &[&fields], &dir.join("warm")).expect("warm-up write");
        c.barrier();
        let before = ALLOCS.load(Ordering::Relaxed);
        c.barrier();
        write_checkpoint(c, &dm, &[&fields], &dir.join("measured")).expect("write");
        c.barrier();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let part = &dm.parts[0];
        let file = PartFile::read(&dir.join("measured"), part.id, None).expect("read back");
        let chunks: u64 = file.header.sections.iter().map(|s| s.nchunks as u64).sum();
        let entities: u64 = Dim::ALL.iter().map(|&d| part.mesh.count(d) as u64).sum();
        (allocs, chunks, entities)
    });
    let _ = std::fs::remove_dir_all(&dir);
    Cost {
        allocs: out[0].0,
        chunks: out.iter().map(|o| o.1).sum(),
        entities: out.iter().map(|o| o.2).sum(),
    }
}

#[test]
fn a_base_write_allocates_per_chunk_not_per_entity() {
    let (small, big) = (base_write(24), base_write(96));
    println!("{small:?} -> {big:?}"); // shown with --nocapture
    assert!(
        big.entities >= 15 * small.entities,
        "{small:?} -> {big:?}: the mesh did not grow 15x"
    );
    assert!(
        big.chunks > small.chunks,
        "{small:?} -> {big:?}: the big write must span more chunks"
    );
    let allowed = small.allocs + PER_CHUNK * (big.chunks - small.chunks) + 32;
    assert!(
        big.allocs <= allowed,
        "allocations grew with the mesh: {small:?} -> {big:?} (at most {allowed})"
    );
}
