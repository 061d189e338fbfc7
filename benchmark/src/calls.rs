//! Every call the benchmark makes into the library, in one file.
//!
//! Each function here wraps one public entry point (or one tight loop over
//! public accessors) in a span of the caller's [`Recorder`], named
//! `<layer>.<fn>` after the crate that does the work. Nothing else in the
//! benchmark names a library crate, so this file is the complete list of
//! what the benchmark depends on (`README.md` repeats it).

use crate::trace::Recorder;
use parma::{improve_above, improve_weighted, EntityLoads, ImproveOpts, Priority, TopologyOpts};
use pumi_adapt::dist::{adapt_dist, gather_branch_loads, stamp_weights, AdaptOpts};
use pumi_adapt::{
    coarsen, prediction_error_pct, refine, Calibration, CoarsenOpts, RefineOpts, Sample, WEIGHT_TAG,
};
use pumi_check::CheckOpts;
use pumi_core::overlap::Reduction;
use pumi_core::{MigrationPlan, PartMap};
use pumi_field::{dist_field, Field, FieldShape, FieldSync};
use pumi_io::WriteOpts;
use pumi_partition::{HierOpts, PartitionQuality};
use pumi_pcu::phased::Exchange;
use pumi_pcu::{SchedMode, WorldOpts};
use pumi_util::stats::imbalance_pct;
use pumi_util::{Dim, FxHashMap, MeshEnt, PartId};
use std::path::Path;

pub use pumi_adapt::SizeField;
pub use pumi_core::overlap::Overlap;
pub use pumi_core::DistMesh;
pub use pumi_field::DistField;
pub use pumi_mesh::Mesh;
pub use pumi_pcu::{Comm, MachineModel, Received};
pub use pumi_serve::{CheckpointServer, Slice};

// ---------------------------------------------------------------- pcu ----

/// Environment variables that change library defaults; the benchmark
/// measures the defaults, so it clears them before the first library call.
pub const SCRUBBED_ENV: [&str; 4] = [
    "PUMI_PCU_SCHED",
    "PUMI_PCU_ROUTE",
    "PUMI_PCU_WORKERS",
    "PUMI_RESULTS_DIR",
];

/// `pumi_pcu::execute_opts` under `SchedMode::Deterministic`, with runnable
/// rank threads capped at `workers`.
pub fn world<R: Send>(
    machine: MachineModel,
    stack: Option<usize>,
    workers: usize,
    f: impl Fn(&Comm) -> R + Send + Sync,
) -> Vec<R> {
    let mut opts = WorldOpts::default()
        .sched(SchedMode::Deterministic)
        .workers(workers);
    if let Some(bytes) = stack {
        opts = opts.stack_size(bytes);
    }
    pumi_pcu::execute_opts(machine, opts, f)
}

/// `Comm::barrier`.
pub fn barrier(c: &Comm) {
    c.barrier();
}

/// World traffic totals (`Comm::traffic`), or a difference of two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes over on-node links.
    pub on_bytes: u64,
    /// Bytes over off-node links.
    pub off_bytes: u64,
    /// Messages over on-node links.
    pub on_msgs: u64,
    /// Messages over off-node links.
    pub off_msgs: u64,
}

impl Traffic {
    /// `self − earlier`.
    pub fn since(&self, earlier: &Traffic) -> Traffic {
        Traffic {
            on_bytes: self.on_bytes - earlier.on_bytes,
            off_bytes: self.off_bytes - earlier.off_bytes,
            on_msgs: self.on_msgs - earlier.on_msgs,
            off_msgs: self.off_msgs - earlier.off_msgs,
        }
    }

    /// `self + other`.
    pub fn plus(&self, other: &Traffic) -> Traffic {
        Traffic {
            on_bytes: self.on_bytes + other.on_bytes,
            off_bytes: self.off_bytes + other.off_bytes,
            on_msgs: self.on_msgs + other.on_msgs,
            off_msgs: self.off_msgs + other.off_msgs,
        }
    }

    /// The later of two readings of the same (monotonic) meters.
    pub fn max(self, other: Traffic) -> Traffic {
        if other.on_msgs + other.off_msgs > self.on_msgs + self.off_msgs {
            other
        } else {
            self
        }
    }

    /// The earlier of two readings of the same (monotonic) meters.
    pub fn min(self, other: Traffic) -> Traffic {
        if other.on_msgs + other.off_msgs < self.on_msgs + self.off_msgs {
            other
        } else {
            self
        }
    }

    /// Messages over real links.
    pub fn msgs(&self) -> u64 {
        self.on_msgs + self.off_msgs
    }

    /// Bytes over real links.
    pub fn bytes(&self) -> u64 {
        self.on_bytes + self.off_bytes
    }
}

/// `Comm::traffic`.
pub fn traffic(c: &Comm) -> Traffic {
    let t = c.traffic();
    Traffic {
        on_bytes: t.on_node_bytes,
        off_bytes: t.off_node_bytes,
        on_msgs: t.on_node_msgs,
        off_msgs: t.off_node_msgs,
    }
}

/// One phased all-to-all round through default `Exchange::new`: `payload[p]`
/// goes to peer `p`.
pub fn exchange_all(rec: &Recorder, c: &Comm, payload: &[[u8; 8]]) -> Received {
    rec.span("pcu.exchange", || {
        let mut ex = Exchange::new(c);
        for (peer, bytes) in payload.iter().enumerate() {
            if peer != c.rank() {
                ex.to(peer).put_bytes(bytes);
            }
        }
        ex.finish()
    })
}

/// Whether `rx` holds exactly one frame from every other rank and each
/// frame is the 8 bytes `expect(source)`. Returns the payload bytes seen.
pub fn received_matches(
    c: &Comm,
    rx: &mut Received,
    expect: impl Fn(usize) -> [u8; 8],
) -> Option<u64> {
    if rx.len() != c.nranks() - 1 {
        return None;
    }
    let mut bytes = 0u64;
    for (src, r) in rx.iter_mut() {
        let got = r.try_get_bytes().ok()?;
        if *src == c.rank() || got != expect(*src) || !r.is_done() {
            return None;
        }
        bytes += got.len() as u64;
    }
    Some(bytes)
}

/// `allreduce_max_u64` / `allreduce_sum_u64` of one value.
pub fn max_and_sum(c: &Comm, x: u64) -> (u64, u64) {
    (c.allreduce_max_u64(x), c.allreduce_sum_u64(x))
}

/// Probe: `n` back-to-back `allreduce_max_f64`. Returns µs per collective
/// on this rank.
pub fn collective_probe(rec: &Recorder, c: &Comm, n: usize) -> f64 {
    let t0 = rec.now_ns();
    rec.span("pcu.allreduce", || {
        let mut x = c.rank() as f64;
        for _ in 0..n {
            x = std::hint::black_box(c.allreduce_max_f64(x));
        }
    });
    (rec.now_ns() - t0) as f64 * 1e-3 / n as f64
}

/// `pumi_pcu::obs::world_report` (the cost of folding the library's own
/// observability data at the end of a run).
pub fn world_report(rec: &Recorder, c: &Comm) {
    rec.span("obs.report", || {
        std::hint::black_box(pumi_pcu::obs::world_report(c));
    });
}

// ------------------------------------------------- meshgen, partition ----

/// `tri_rect(n, n)` on the unit square, optionally jittered.
pub fn gen_tri(rec: &Recorder, n: usize, jitter: Option<(f64, u64)>) -> Mesh {
    rec.span("meshgen.generate", || {
        let mut m = pumi_meshgen::tri_rect(n, n, 1.0, 1.0);
        if let Some((amp, seed)) = jitter {
            pumi_meshgen::jitter(&mut m, amp, seed);
        }
        m
    })
}

/// `tet_box(n, n, n)` on the unit cube, jittered. Also returns the element
/// centroids of the lattice before the jitter, indexed by element id (the
/// element's global id after `distribute`).
pub fn gen_tet(rec: &Recorder, n: usize, jitter: (f64, u64)) -> (Mesh, Vec<[f64; 3]>) {
    let mut m = rec.span("meshgen.generate", || {
        pumi_meshgen::tet_box(n, n, n, 1.0, 1.0, 1.0)
    });
    let mut lattice = vec![[0.0; 3]; m.index_space(m.elem_dim_t())];
    for e in m.elems() {
        lattice[e.idx()] = m.centroid(e);
    }
    rec.span("meshgen.generate", || {
        pumi_meshgen::jitter(&mut m, jitter.0, jitter.1)
    });
    (m, lattice)
}

/// Number of elements of a serial mesh.
pub fn num_elems(mesh: &Mesh) -> usize {
    mesh.num_elems()
}

/// Node-major element labels from `partition_mesh_hier`.
pub fn partition(
    rec: &Recorder,
    mesh: &Mesh,
    nparts: usize,
    machine: &MachineModel,
) -> Vec<PartId> {
    rec.span("partition.partition", || {
        pumi_partition::partition_mesh_hier(mesh, nparts, machine, HierOpts::default())
    })
}

/// Element imbalance (%) of a serial labelling (`PartitionQuality`).
pub fn label_imbalance_pct(mesh: &Mesh, labels: &[PartId], nparts: usize) -> f64 {
    PartitionQuality::compute(mesh, labels, nparts).imbalance_pct(mesh.elem_dim_t())
}

/// Number of elements adjacent to every serial vertex, indexed by vertex
/// index (= the vertex's global id after `distribute`).
pub fn vertex_valences(mesh: &Mesh) -> Vec<u32> {
    let mut val = vec![0u32; mesh.index_space(Dim::Vertex)];
    for e in mesh.elems() {
        for &v in mesh.verts_of(e) {
            val[v as usize] += 1;
        }
    }
    val
}

// --------------------------------------------------------------- core ----

/// `pumi_core::distribute` with a contiguous part→rank map.
pub fn distribute(
    rec: &Recorder,
    c: &Comm,
    serial: &Mesh,
    labels: &[PartId],
    nparts: usize,
) -> DistMesh {
    rec.span("core.distribute", || {
        let map = PartMap::contiguous(nparts, c.nranks());
        pumi_core::distribute(c, map, serial, labels)
    })
}

/// Peak part load as a percentage of the mean part load, from the current
/// element counts (`EntityLoads::gather`): 100 is perfect balance.
pub fn peak_load_pct(c: &Comm, dm: &DistMesh) -> f64 {
    let d = elem_dim(dm);
    100.0 + EntityLoads::gather(c, dm).imbalance_pct(d)
}

/// Same measure for any list of loads.
pub fn peak_load_pct_of(loads: &[f64]) -> f64 {
    100.0 + imbalance_pct(loads)
}

fn elem_dim(dm: &DistMesh) -> Dim {
    dm.parts.first().map_or(Dim::Face, |p| p.mesh.elem_dim_t())
}

/// World total of non-ghost elements.
pub fn global_elems(c: &Comm, dm: &DistMesh) -> u64 {
    dm.global_sum(c, |p| {
        p.mesh.elems().filter(|&e| !p.is_ghost(e)).count() as u64
    })
}

/// Largest number of owned elements any rank holds.
pub fn max_rank_elems(c: &Comm, dm: &DistMesh) -> u64 {
    let local: u64 = dm.parts.iter().map(|p| p.mesh.num_elems() as u64).sum();
    c.allreduce_max_u64(local)
}

/// Migration plans of this rank's parts, keyed by part id.
pub type Plans = FxHashMap<PartId, MigrationPlan>;

/// For every local part `p`, plan to send the `share` of its elements
/// nearest the centroid of part `dest(p)` to that part. Distances are taken
/// on `lattice` (reference centroids by element global id), so the same
/// elements are chosen wherever the seed's jitter put the vertices.
/// Collective (the part centroids are gathered). Untimed: plans are inputs
/// of the step.
pub fn band_plans(
    c: &Comm,
    dm: &DistMesh,
    lattice: &[[f64; 3]],
    share: f64,
    dest: impl Fn(PartId) -> PartId,
) -> Plans {
    let nparts = dm.map.nparts();
    let mut sums = vec![0f64; 4 * nparts];
    for p in &dm.parts {
        let col = 4 * p.id as usize;
        for e in p.mesh.elems() {
            let x = lattice[p.gid_of(e) as usize];
            sums[col] += x[0];
            sums[col + 1] += x[1];
            sums[col + 2] += x[2];
            sums[col + 3] += 1.0;
        }
    }
    let sums = c.allreduce_sum_f64_vec(&sums);
    let mut plans = Plans::default();
    for p in &dm.parts {
        let to = dest(p.id);
        let col = 4 * to as usize;
        let n = sums[col + 3].max(1.0);
        let target = [sums[col] / n, sums[col + 1] / n, sums[col + 2] / n];
        let mut by_dist: Vec<(f64, u64, MeshEnt)> = p
            .mesh
            .elems()
            .map(|e| {
                let gid = p.gid_of(e);
                let x = lattice[gid as usize];
                let d2: f64 = (0..3).map(|k| (x[k] - target[k]).powi(2)).sum();
                (d2, gid, e)
            })
            .collect();
        by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let take = (by_dist.len() as f64 * share).round() as usize;
        let mut plan = MigrationPlan::new();
        for &(_, _, e) in by_dist.iter().take(take) {
            plan.send(e, to);
        }
        plans.insert(p.id, plan);
    }
    plans
}

/// `pumi_core::migrate`. Returns `(elements_moved, entities_sent)`.
pub fn migrate(rec: &Recorder, c: &Comm, dm: &mut DistMesh, plans: &Plans) -> (u64, u64) {
    rec.span("core.migrate", || {
        let s = pumi_core::migrate(c, dm, plans);
        (s.elements_moved, s.entities_sent)
    })
}

/// A vertex-bridged overlap grown to `depth` (`Overlap::grow`). Returns
/// the overlap and the world total of ghost copies.
pub fn grow_overlap(rec: &Recorder, c: &Comm, dm: &mut DistMesh, depth: usize) -> (Overlap, u64) {
    rec.span("core.overlap_grow", || {
        let mut ov = Overlap::from_dist(dm).with_bridge(Dim::Vertex);
        ov.grow(c, dm, depth);
        let ghosts = dm.global_sum(c, |p| p.num_ghosts() as u64);
        (ov, ghosts)
    })
}

// ------------------------------------------------------- field, mesh ----

/// A 3-component linear vertex field on every local part, every node set to
/// `f(coords)`.
pub fn vertex_field(dm: &DistMesh, f: impl Fn([f64; 3]) -> [f64; 3]) -> DistField {
    let mut fields = dist_field(dm, &Field::new("u", FieldShape::Linear, 3));
    for (part, fld) in dm.parts.iter().zip(fields.iter_mut()) {
        for v in part.mesh.iter(Dim::Vertex) {
            fld.set(v, &f(part.mesh.coords(v)));
        }
    }
    fields
}

/// The assembly loop of the halo step: zero the field, then every owned
/// element adds `w` to each of its vertices through the public accessors
/// (`elems`, `is_ghost`, `verts_of`, `Field::get`/`set`).
pub fn elem_loop(rec: &Recorder, dm: &DistMesh, fields: &mut DistField, w: [f64; 3]) {
    rec.span("mesh.elem_loop", || {
        for (part, fld) in dm.parts.iter().zip(fields.iter_mut()) {
            fld.fill(&part.mesh, &[0.0; 3]);
            for e in part.mesh.elems() {
                if part.is_ghost(e) {
                    continue;
                }
                for &v in part.mesh.verts_of(e) {
                    let v = MeshEnt::vertex(v);
                    let mut x = [0.0; 3];
                    x.copy_from_slice(fld.get(v).expect("filled above"));
                    for k in 0..3 {
                        x[k] += w[k];
                    }
                    fld.set(v, &x);
                }
            }
        }
    })
}

/// `fields.sync(c, dm, ov, Reduction::Add)`.
pub fn sync_add(rec: &Recorder, c: &Comm, dm: &DistMesh, ov: &Overlap, fields: &mut DistField) {
    rec.span("field.sync", || fields.sync(c, dm, ov, Reduction::Add))
}

/// Whether every vertex copy (owned, boundary or ghost) holds exactly
/// `valence × w`, bit for bit. Collective.
pub fn assembled_equals(
    rec: &Recorder,
    c: &Comm,
    dm: &DistMesh,
    fields: &DistField,
    valence: &[u32],
    w: [f64; 3],
) -> bool {
    rec.span("check.verify", || {
        let mut bad = 0u64;
        for (part, fld) in dm.parts.iter().zip(fields) {
            for v in part.mesh.iter(Dim::Vertex) {
                let n = valence[part.gid_of(v) as usize] as f64;
                let want = [n * w[0], n * w[1], n * w[2]];
                let ok = fld.get(v).is_some_and(|got| {
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                });
                bad += u64::from(!ok);
            }
        }
        c.allreduce_sum_u64(bad) == 0
    })
}

// -------------------------------------------------------------- check ----

/// `check_dist(CheckOpts::all())`.
pub fn check_dist(rec: &Recorder, c: &Comm, dm: &DistMesh) -> bool {
    rec.span("check.verify", || {
        pumi_check::check_dist(c, dm, CheckOpts::all()).is_ok()
    })
}

/// `check_overlap`.
pub fn check_overlap(rec: &Recorder, c: &Comm, dm: &DistMesh, ov: &Overlap) -> bool {
    rec.span("check.verify", || {
        pumi_check::check_overlap(c, dm, ov).is_ok()
    })
}

/// `pumi_io::struct_hash`.
pub fn struct_hash(rec: &Recorder, c: &Comm, dm: &DistMesh) -> u64 {
    rec.span("io.hash", || pumi_io::struct_hash(c, dm))
}

// ------------------------------------------------------ adapt, parma ----

/// The adaptive loop's state between rounds.
pub struct AdaptLoop {
    /// The distributed mesh.
    pub dm: DistMesh,
    cal: Calibration,
    pri: Priority,
    topo: TopologyOpts,
}

/// What one adaptive round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Edge splits.
    pub splits: u64,
    /// Edge collapses.
    pub collapses: u64,
    /// Collapses vetoed at part boundaries.
    pub vetoed: u64,
    /// Elements after adaptation.
    pub elements: u64,
    /// Elements ParMA migrated (speculative + touch-up).
    pub moved: u64,
    /// Whether the speculative step lowered the predicted imbalance.
    pub improved: bool,
    /// Prediction error of the round, %.
    pub pred_err_pct: f64,
}

impl AdaptLoop {
    /// Fresh loop state: no calibration evidence, `Face` priority, topology
    /// awareness with off-node penalty 2.0.
    pub fn new(dm: DistMesh, machine: MachineModel) -> AdaptLoop {
        AdaptLoop {
            dm,
            cal: Calibration::new(),
            pri: "Face".parse().expect("static priority string"),
            topo: TopologyOpts::new(machine).off_node_penalty(2.0),
        }
    }

    /// One adaptive round: `stamp_weights` → `improve_weighted` (tol 5 %,
    /// 60 iters) → `gather_branch_loads` → `adapt_dist` (default coarsen,
    /// no in-call checks) → `Calibration::observe` → `improve_above` (10 %).
    pub fn round(&mut self, rec: &Recorder, c: &Comm, size: &SizeField) -> Round {
        let topo = self.topo;
        let opts = |tol: f64| ImproveOpts::new().tol(tol).max_iters(60).topo(topo);
        let d = elem_dim(&self.dm);
        rec.span("adapt.stamp", || {
            stamp_weights(&mut self.dm, size, &self.cal)
        });
        let report = rec.span("parma.improve", || {
            improve_weighted(c, &mut self.dm, &self.pri, opts(0.05), WEIGHT_TAG)
        });
        let branch_pred = rec.span("adapt.branch_loads", || gather_branch_loads(c, &self.dm));
        let stats = rec.span("adapt.adapt", || {
            let o = AdaptOpts::new().coarsen(CoarsenOpts::default());
            adapt_dist(c, &mut self.dm, size, o)
        });
        let pred_err_pct = rec.span("adapt.observe", || {
            let realized = EntityLoads::gather(c, &self.dm).of(d).to_vec();
            let samples: Vec<Sample> = branch_pred
                .iter()
                .zip(&realized)
                .map(|(&predicted, &realized)| Sample {
                    predicted,
                    realized,
                })
                .collect();
            self.cal.observe(&samples);
            prediction_error_pct(&samples)
        });
        let touchup = rec.span("parma.touchup", || {
            improve_above(c, &mut self.dm, &self.pri, opts(0.10), 10.0)
                .map_or(0, |r| r.elements_moved)
        });
        let improved = report
            .types
            .iter()
            .any(|t| t.dim == d && t.final_pct < t.initial_pct);
        Round {
            splits: stats.splits,
            collapses: stats.collapses,
            vetoed: stats.vetoed_collapses,
            elements: stats.elements_after,
            moved: report.elements_moved + touchup,
            improved,
            pred_err_pct,
        }
    }
}

/// A shock-layer size field around the line `x + 0.4 y = pos`.
pub fn shock_size(pos: f64, h_min: f64, h_max: f64, width: f64) -> SizeField {
    SizeField::shock(move |p| p[0] + 0.4 * p[1] - pos, h_min, h_max, width)
}

/// Serial baseline: one `refine` + `coarsen` pass on a single-part mesh.
pub fn serial_adapt(rec: &Recorder, mesh: &mut Mesh, size: &SizeField) {
    rec.span("adapt.serial", || {
        refine(mesh, size, None, RefineOpts::default());
        coarsen(mesh, size, CoarsenOpts::default());
    })
}

// ---------------------------------------------------------- io, serve ----

/// `write_checkpoint_with` (v2 default). Returns world bytes written.
pub fn write_base(
    rec: &Recorder,
    c: &Comm,
    dm: &DistMesh,
    fields: &DistField,
    dir: &Path,
) -> Option<u64> {
    rec.span("io.write_base", || {
        pumi_io::write_checkpoint_with(c, dm, &[fields], dir, &WriteOpts::default())
            .ok()
            .map(|s| s.bytes_global)
    })
}

/// (Re)start dirty tracking, then touch every `stride`-th vertex starting
/// at `offset`: nudge its coordinates and field value and `mark_dirty` it.
pub fn touch_vertices(dm: &mut DistMesh, fields: &mut DistField, stride: usize, offset: usize) {
    dm.start_dirty_tracking();
    for (part, fld) in dm.parts.iter_mut().zip(fields.iter_mut()) {
        let vs: Vec<MeshEnt> = part
            .mesh
            .iter(Dim::Vertex)
            .skip(offset % stride)
            .step_by(stride)
            .collect();
        for v in vs {
            let mut x = part.mesh.coords(v);
            x[2] += 0.001;
            part.mesh.set_coords(v, x);
            fld.set(v, &[x[0] + x[1], x[1] * x[2], x[2] - x[0]]);
            part.mark_dirty(v);
        }
    }
}

/// `write_delta_checkpoint`. Returns world bytes written.
pub fn write_delta(
    rec: &Recorder,
    c: &Comm,
    dm: &mut DistMesh,
    fields: &DistField,
    dir: &Path,
) -> Option<u64> {
    rec.span("io.write_delta", || {
        pumi_io::write_delta_checkpoint(c, dm, &[fields], dir)
            .ok()
            .map(|s| s.bytes_global)
    })
}

/// What a collective restore returned.
pub struct ReadBack {
    /// The restored mesh.
    pub dm: DistMesh,
    /// Bytes read across the world.
    pub bytes: u64,
    /// Elements moved by the N→M redistribution.
    pub elems_moved: u64,
}

/// `read_checkpoint` onto the ranks of `c`.
pub fn read_checkpoint(rec: &Recorder, c: &Comm, dir: &Path) -> Option<ReadBack> {
    rec.span("io.read_checkpoint", || {
        pumi_io::read_checkpoint(c, dir).ok().map(|r| ReadBack {
            dm: r.dm,
            bytes: r.stats.bytes_global,
            elems_moved: r.stats.elements_moved,
        })
    })
}

/// A cold `CheckpointServer::open`.
pub fn serve_open(rec: &Recorder, dir: &Path) -> Option<CheckpointServer> {
    rec.span("serve.open", || CheckpointServer::open(dir).ok())
}

/// `restore_slice(i, n)`.
pub fn restore_slice(
    rec: &Recorder,
    server: &CheckpointServer,
    i: usize,
    n: usize,
) -> Option<Slice> {
    rec.span("serve.slice", || server.restore_slice(i, n).ok())
}

/// Global ids of a restored slice's elements.
pub fn slice_elem_gids(slice: &Slice) -> Vec<u64> {
    slice
        .parts
        .iter()
        .flat_map(|p| p.mesh.elems().map(|e| p.gid_of(e)))
        .collect()
}

/// `CheckpointServer::stats`:
/// `(chunk_hits, chunk_misses, disk_bytes, raw_bytes)`.
pub fn serve_stats(server: &CheckpointServer) -> (u64, u64, u64, u64) {
    let s = server.stats();
    (s.chunk_hits, s.chunk_misses, s.disk_bytes, s.raw_bytes)
}
