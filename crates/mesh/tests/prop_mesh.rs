//! Property tests for the complete mesh representation: adjacency symmetry,
//! closure completeness, validity under random create/delete sequences, and
//! the slot-indexed tag store against the map per tag it replaced.

use proptest::prelude::*;
use pumi_mesh::{Mesh, Topology, NO_GEOM};
use pumi_util::{Dim, MeshEnt, TagData, TagId, TagKind};
use std::collections::HashMap;

/// Build a random valid triangle fan mesh from a proptest-driven recipe.
fn fan_mesh(n_outer: usize) -> Mesh {
    let mut m = Mesh::new(2);
    let center = m.add_vertex([0.0, 0.0, 0.0], NO_GEOM).index();
    let ring: Vec<u32> = (0..n_outer)
        .map(|i| {
            let a = i as f64 / n_outer as f64 * std::f64::consts::TAU;
            m.add_vertex([a.cos(), a.sin(), 0.0], NO_GEOM).index()
        })
        .collect();
    for i in 0..n_outer {
        m.add_element(
            Topology::Triangle,
            &[center, ring[i], ring[(i + 1) % n_outer]],
            NO_GEOM,
        );
    }
    m
}

proptest! {
    /// Upward and downward adjacency are inverse relations for every
    /// entity of every dimension.
    #[test]
    fn adjacency_is_symmetric(n in 3usize..12) {
        let m = fan_mesh(n);
        for d in 0..2usize {
            let dim = Dim::from_usize(d);
            let up = Dim::from_usize(d + 1);
            for e in m.iter(dim) {
                for x in m.adjacent(e, up) {
                    prop_assert!(
                        m.adjacent(x, dim).contains(&e),
                        "{x:?} -> {dim} misses {e:?}"
                    );
                }
            }
            for x in m.iter(up) {
                for e in m.adjacent(x, dim) {
                    prop_assert!(m.adjacent(e, up).contains(&x));
                }
            }
        }
    }

    /// closure(e) contains exactly the downward adjacencies of every lower
    /// dimension plus e itself.
    #[test]
    fn closure_is_complete(n in 3usize..12) {
        let m = fan_mesh(n);
        for e in m.elems() {
            let c = m.closure(e);
            prop_assert_eq!(c.len(), 3 + 3 + 1);
            for d in 0..2usize {
                let dim = Dim::from_usize(d);
                for a in m.adjacent(e, dim) {
                    prop_assert!(c.contains(&a), "closure misses {a:?}");
                }
            }
            prop_assert_eq!(*c.last().unwrap(), e);
        }
    }

    /// Random delete/re-add sequences preserve validity and counts return
    /// to the original when everything is recreated.
    #[test]
    fn delete_recreate_roundtrip(n in 4usize..10, kills in proptest::collection::vec(0usize..100, 1..6)) {
        let mut m = fan_mesh(n);
        let v0 = m.count(Dim::Vertex);
        let e0 = m.count(Dim::Edge);
        let f0 = m.count(Dim::Face);
        // Record all triangles, delete a subset, re-add them.
        let tris: Vec<(MeshEnt, Vec<u32>)> = m
            .elems()
            .map(|t| (t, m.verts_of(t).to_vec()))
            .collect();
        let mut deleted: Vec<Vec<u32>> = Vec::new();
        for k in kills {
            let (t, verts) = &tris[k % tris.len()];
            if m.is_live(*t) {
                m.delete(*t);
                deleted.push(verts.clone());
            }
        }
        m.assert_valid();
        for verts in deleted {
            m.add_element(Topology::Triangle, &verts, NO_GEOM);
        }
        m.assert_valid();
        prop_assert_eq!(m.count(Dim::Vertex), v0);
        prop_assert_eq!(m.count(Dim::Edge), e0);
        prop_assert_eq!(m.count(Dim::Face), f0);
    }

    /// Same-dimension neighbour queries are symmetric and irreflexive.
    #[test]
    fn neighbors_symmetric(n in 3usize..12) {
        let m = fan_mesh(n);
        for e in m.elems() {
            let nbrs = m.adjacent(e, Dim::Face);
            prop_assert!(!nbrs.contains(&e), "self in neighbours");
            for x in nbrs {
                prop_assert!(m.adjacent(x, Dim::Face).contains(&e));
            }
        }
    }
}

/// The tag store as a map keyed by `(tag, entity)` — the store's model —
/// must agree with the slot arrays on every query, for every slot.
fn assert_tags_match(m: &Mesh, shadow: &HashMap<(TagId, MeshEnt), TagData>) {
    let tm = m.tags();
    for t in tm.tags() {
        let carried = shadow.keys().filter(|(st, _)| *st == t).count();
        assert_eq!(tm.count(t), carried, "count of {t:?}");
    }
    for d in Dim::ALL {
        for i in 0..m.index_space(d) {
            let e = MeshEnt::new(d, i as u32);
            let mut expect: Vec<(TagId, TagData)> = tm
                .tags()
                .filter_map(|t| Some((t, shadow.get(&(t, e))?.clone())))
                .collect();
            expect.sort_by_key(|(t, _)| t.0);
            assert!(m.is_live(e) || expect.is_empty(), "model tags dead {e:?}");
            for t in tm.tags() {
                assert_eq!(tm.get(t, e).as_ref(), shadow.get(&(t, e)), "{t:?} on {e:?}");
                assert_eq!(tm.has(t, e), shadow.contains_key(&(t, e)), "{t:?} on {e:?}");
            }
            assert_eq!(tm.collect(e), expect, "collect({e:?})");
        }
    }
}

/// The `pick`-th live entity over all four dimensions.
fn pick_live(m: &Mesh, pick: usize) -> MeshEnt {
    let live: Vec<MeshEnt> = Dim::ALL.iter().flat_map(|&d| m.iter(d)).collect();
    live[pick % live.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random declare / set / remove / delete / create sequences on a tet
    /// mesh: the slot arrays answer `get`, `has`, `count` and `collect`
    /// as a `HashMap<(TagId, MeshEnt), TagData>` does after every step, a
    /// deleted entity loses its values, and an entity created in a reused
    /// slot carries no tag of its predecessor.
    #[test]
    fn slot_tags_match_a_map_per_entity(
        ops in proptest::collection::vec((0u8..6, 0usize..1000, 0usize..1000, -50i64..50), 1..60)
    ) {
        let mut m = Mesh::new(3);
        for k in 0..5 {
            m.add_vertex([k as f64, 0.0, 0.0], NO_GEOM);
        }
        m.add_element(Topology::Tet, &[0, 1, 2, 3], NO_GEOM);
        m.add_element(Topology::Tet, &[1, 2, 3, 4], NO_GEOM);
        let mut shadow: HashMap<(TagId, MeshEnt), TagData> = HashMap::new();
        let value = |kind: TagKind, x: i64| match kind {
            TagKind::Int => TagData::Ints(vec![x, -x]),
            TagKind::Double => TagData::Dbls(vec![x as f64 * 0.5]),
            TagKind::Bytes => TagData::Bytes(vec![x as u8; (x.unsigned_abs() % 4) as usize]),
        };
        for (op, a, b, x) in ops {
            let ntags = m.tags().num_tags();
            match op {
                // Declare the next tag, kinds in rotation.
                0 if ntags < 5 => {
                    let (kind, len) = [(TagKind::Int, 2), (TagKind::Double, 1), (TagKind::Bytes, 0)][ntags % 3];
                    m.tags_mut().declare(&format!("t{ntags}"), kind, len);
                }
                1 | 2 if ntags > 0 && m.count(Dim::Vertex) > 0 => {
                    let (t, e) = (TagId((a % ntags) as u32), pick_live(&m, b));
                    if op == 1 {
                        let data = value(m.tags().kind(t), x);
                        m.tags_mut().set(t, e, data.clone());
                        shadow.insert((t, e), data);
                    } else {
                        prop_assert_eq!(m.tags_mut().remove(t, e), shadow.remove(&(t, e)));
                    }
                }
                // Delete a tet and what it orphans, on every dimension.
                3 if m.num_elems() > 0 => {
                    let tet = m.elems().nth(a % m.num_elems()).expect("a live tet");
                    m.delete_with_orphans(tet);
                    shadow.retain(|(_, e), _| m.is_live(*e));
                }
                // A tet over four live vertices (new ones if too few are
                // left): it and its new sides take slots off the free lists.
                // Only the topology matters here, not manifoldness.
                4 => {
                    while m.count(Dim::Vertex) < 4 {
                        m.add_vertex([0.0; 3], NO_GEOM);
                    }
                    let mut vs: Vec<u32> = m.iter(Dim::Vertex).map(|v| v.index()).collect();
                    let n = vs.len();
                    for k in 0..4 {
                        vs.swap(k, k + (a / (k + 1) + b) % (n - k));
                    }
                    m.add_element(Topology::Tet, &vs[..4], NO_GEOM);
                }
                _ => {
                    m.add_vertex([x as f64; 3], NO_GEOM);
                }
            }
            assert_tags_match(&m, &shadow);
        }
    }
}

/// Fixed regression: fan of 3 has fully connected elements via vertices.
#[test]
fn fan3_vertex_bridged_neighbors() {
    let m = fan_mesh(3);
    for e in m.elems() {
        assert_eq!(m.neighbors_via(e, Dim::Vertex).len(), 2);
    }
}
