//! Cost shape of adjacency, without a clock: §I's "the complexity of any
//! mesh adjacency interrogation is O(1) (i.e., not a function of mesh
//! size)". On `tet_box(n, n, n)` for n = 6, 12, 24 (1 296 → 82 944 tets)
//! every region→vertices, vertex→regions and region→region (via faces)
//! query is made once, and every edge, face and region is found from its
//! vertices. Each query must make no allocator call, and the largest number
//! of handles the one-level `down`/`up` storage yields for one query must be
//! the same at every size. Counted, not timed, so it holds on any machine.

use pumi_mesh::Mesh;
use pumi_meshgen::tet_box;
use pumi_util::{Dim, MeshEnt};
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

/// Largest per-query item count of each query, and the allocator calls of
/// all queries of one mesh.
#[derive(Debug, PartialEq)]
struct Cost {
    region_to_vertices: usize,
    vertex_to_regions: usize,
    region_neighbors: usize,
    find_entity: usize,
    allocs: u64,
}

/// The handles `find_entity`'s walk may read going up from `from` toward
/// dimension `d`: every up-list it reaches through entities whose vertices
/// all lie in `verts`.
fn walk_items(mesh: &Mesh, from: MeshEnt, d: Dim, verts: &[u32]) -> usize {
    mesh.up(from)
        .map(|u| {
            let inside = mesh.verts_of(u).iter().all(|v| verts.contains(v));
            1 + if u.dim() < d && inside {
                walk_items(mesh, u, d, verts)
            } else {
                0
            }
        })
        .sum()
}

fn cost(mesh: &Mesh) -> Cost {
    let elems: Vec<MeshEnt> = mesh.elems().collect();
    let verts: Vec<MeshEnt> = mesh.iter(Dim::Vertex).collect();
    // Buffers the caller keeps, sized once for the largest neighbourhood.
    let mut out = Vec::with_capacity(256);
    let mut faces = Vec::with_capacity(256);
    let mut cost = Cost {
        region_to_vertices: 0,
        vertex_to_regions: 0,
        region_neighbors: 0,
        find_entity: 0,
        allocs: 0,
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    for &e in &elems {
        // Region → vertices: the stored vertex list.
        mesh.adjacent_into(e, Dim::Vertex, &mut out);
        cost.region_to_vertices = cost.region_to_vertices.max(out.len());

        // Region → regions through faces: each face's up-list.
        let mut items = 0;
        out.clear();
        for f in mesh.down(e) {
            items += 1;
            for r in mesh.up(f) {
                items += 1;
                if r != e {
                    out.push(r);
                }
            }
        }
        cost.region_neighbors = cost.region_neighbors.max(items);
    }
    for &v in &verts {
        // Vertex → regions expands vertex → edges → faces → regions level by
        // level; the items are the up-lists of the vertex, of its edges and
        // of its distinct faces.
        mesh.adjacent_into(v, Dim::Region, &mut out);
        mesh.adjacent_into(v, Dim::Face, &mut faces);
        let edges = mesh.up(v).len();
        let items = edges
            + mesh.up(v).map(|e| mesh.up(e).len()).sum::<usize>()
            + faces.iter().map(|&f| mesh.up(f).len()).sum::<usize>();
        cost.vertex_to_regions = cost.vertex_to_regions.max(items);
    }
    for d in [Dim::Edge, Dim::Face, Dim::Region] {
        for e in mesh.iter(d) {
            // Found from its vertices; an edge's walk starts at the vertex
            // with fewer edges, any other at its first vertex.
            let vs = mesh.verts_of(e);
            assert_eq!(mesh.find_entity(d, vs), Some(e));
            let mut from = MeshEnt::vertex(vs[0]);
            if d == Dim::Edge && mesh.up(MeshEnt::vertex(vs[1])).len() < mesh.up(from).len() {
                from = MeshEnt::vertex(vs[1]);
            }
            let items = walk_items(mesh, from, d, vs);
            cost.find_entity = cost.find_entity.max(items);
        }
    }
    cost.allocs = ALLOCS.load(Ordering::Relaxed) - before;
    cost
}

#[test]
fn adjacency_cost_does_not_grow_with_the_mesh() {
    let costs: Vec<(usize, Cost)> = [6, 12, 24]
        .into_iter()
        .map(|n| {
            let mesh = tet_box(n, n, n, 1.0, 1.0, 1.0);
            assert_eq!(mesh.num_elems(), 6 * n * n * n);
            (mesh.num_elems(), cost(&mesh))
        })
        .collect();
    for (tets, c) in &costs {
        println!("{tets} tets: {c:?}"); // shown with --nocapture
        assert_eq!(c.allocs, 0, "{tets} tets: queries allocated");
        assert_eq!(*c, costs[0].1, "{tets} tets: cost moved with mesh size");
    }
    // Four vertices; four faces each bounding at most two regions; the
    // up-lists around an interior vertex of the `tet_box` stencil.
    assert_eq!(costs[0].1.region_to_vertices, 4);
    assert_eq!(costs[0].1.region_neighbors, 12);
    assert_eq!(costs[0].1.vertex_to_regions, 158);
    // The edges of one vertex, then the up-lists the walk reaches inside
    // one entity's vertex set.
    assert_eq!(costs[0].1.find_entity, 42);
}
