//! The paper's evaluation as library functions: one per table or figure.
//!
//! Each scenario takes a parameter struct with exactly two constructors —
//! `paper()`, the scale EXPERIMENTS.md reports, and `small()`, seconds in a
//! debug build — and returns the numbers it produced (with the
//! [`ImproveReport`] where ParMA ran). The binaries in `src/bin/` print those
//! structs; `tests/paper_shapes.rs` asserts every `check:` line on them at
//! `small()`. Wall-clock fields are reported, never asserted.
//!
//! Scenarios that leave a distributed mesh behind call their `inspect`
//! argument on it, inside the world, so the shape tests can run
//! `pumi_check::check_dist` there without this library depending on the
//! checker; the printers pass [`no_inspect`].

use parma::{heavy_part_split, improve, EntityLoads, ImproveOpts, ImproveReport, Priority};
use pumi_adapt::{element_weight, refine, RefineOpts, RefineStats, SizeField};
use pumi_core::twolevel::boundary_traffic_split;
use pumi_core::{distribute, DistMesh, PartExchange, PartMap};
use pumi_geom::builders::VesselSpec;
use pumi_mesh::Mesh;
use pumi_meshgen::{jitter, shock_plane_distance, vessel_tet, wing_tet};
use pumi_partition::{
    off_node_share, partition_mesh, partition_mesh_weighted, split_labels, PartitionQuality,
};
use pumi_pcu::phased::Exchange;
use pumi_pcu::{execute_opts, Comm, MachineModel, TrafficReport, WorldOpts};
use pumi_util::stats::{imbalance, LoadStats, Timer};
use pumi_util::tag::TagKind;
use pumi_util::{Dim, PartId};

/// The paper's imbalance tolerance (5%), used by every ParMA scenario.
pub const TOL: f64 = 0.05;

/// What a scenario runs, inside the world, on each distributed mesh it
/// leaves behind.
pub type Inspect<'a> = &'a (dyn Fn(&Comm, &DistMesh) + Sync);

/// The [`Inspect`] that looks at nothing.
pub fn no_inspect(_: &Comm, _: &DistMesh) {}

/// Scale of the AAA-proxy scenarios (Tables I–III, Fig 12, the ablation).
#[derive(Debug, Clone, Copy)]
pub struct AaaScale {
    /// Cross-section lattice resolution.
    pub nr: usize,
    /// Axial layers.
    pub nz: usize,
    /// Total parts.
    pub nparts: usize,
    /// Ranks (processes); parts per process = nparts / nranks.
    pub nranks: usize,
}

impl AaaScale {
    /// 240k tets on 64 parts over 4 ranks (16 parts/process; the paper
    /// used 32 parts/process on 512 cores). The part size (~3750 tets) is
    /// chosen so per-part surface/volume statistics are in the regime of
    /// the paper's 8177-tet parts.
    pub fn paper() -> AaaScale {
        AaaScale {
            nr: 20,
            nz: 100,
            nparts: 64,
            nranks: 4,
        }
    }

    /// 15k tets on 32 parts over 2 ranks: the smallest scale found at
    /// which every Table II, Fig 12 and ablation shape still holds.
    pub fn small() -> AaaScale {
        AaaScale {
            nr: 8,
            nz: 40,
            nparts: 32,
            nranks: 2,
        }
    }

    /// Tet count of this scale.
    pub fn elements(&self) -> usize {
        6 * self.nr * self.nr * self.nz
    }
}

/// Build the AAA-proxy vessel mesh (jittered so entity ratios vary by
/// part the way a real CFD mesh's do).
fn aaa_mesh(nr: usize, nz: usize) -> Mesh {
    let mut m = vessel_tet(VesselSpec::aaa(), nr, nz);
    jitter(&mut m, 0.25, 20120901);
    m
}

/// Build the ONERA-M6-proxy wing box mesh.
fn wing_mesh(n: usize) -> Mesh {
    let mut m = wing_tet(n, (n * 2) / 3, n / 2);
    jitter(&mut m, 0.2, 19790401);
    m
}

fn rank0<T>(out: Vec<Option<T>>) -> T {
    out.into_iter()
        .flatten()
        .next()
        .expect("rank 0 returns the result")
}

/// One `parma::improve` call on a freshly distributed partition, as every
/// rank saw it (the gathers are world-identical).
#[derive(Debug, Clone)]
pub struct ParmaRun {
    /// Per-part entity counts before `improve`.
    pub before: EntityLoads,
    /// Per-part entity counts after.
    pub after: EntityLoads,
    /// Part-boundary entity copies after.
    pub boundary_copies: u64,
    /// Per-stage outcome and trajectory, seconds and elements moved.
    pub report: ImproveReport,
}

fn parma_run(
    serial: &Mesh,
    labels: &[PartId],
    scale: AaaScale,
    priority: &str,
    opts: ImproveOpts,
    inspect: Inspect,
) -> ParmaRun {
    let pri: Priority = priority.parse().expect("priority list");
    rank0(pumi_pcu::execute(scale.nranks, |c| {
        let map = PartMap::contiguous(scale.nparts, c.nranks());
        let mut dm = distribute(c, map, serial, labels);
        let before = EntityLoads::gather(c, &dm);
        let report = improve(c, &mut dm, &pri, opts);
        let after = EntityLoads::gather(c, &dm);
        let boundary_copies = dm.global_sum(c, |p| p.shared_entities().len() as u64);
        inspect(c, &dm);
        (c.rank() == 0).then_some(ParmaRun {
            before,
            after,
            boundary_copies,
            report,
        })
    }))
}

// ---- Tables I, II, III ------------------------------------------------

/// The ParMA tests of Table I: name and priority list.
pub const TABLE1: [(&str, &str); 4] = [
    ("T1", "Vtx > Rgn"),
    ("T2", "Vtx = Edge > Rgn"),
    ("T3", "Edge > Rgn"),
    ("T4", "Edge = Face > Rgn"),
];

/// One column of Table II.
#[derive(Debug, Clone)]
pub struct Table2Test {
    /// "T0" … "T4".
    pub name: &'static str,
    /// Table I's method cell.
    pub method: String,
    /// Partitioner (T0) or ParMA (T1–T4) wall-clock seconds.
    pub seconds: f64,
    /// Per-part entity count statistics, indexed by `Dim::as_usize()`.
    pub stats: [LoadStats; 4],
    /// Part-boundary entity copies.
    pub boundary_copies: u64,
    /// The ParMA run behind the column; `None` for T0.
    pub run: Option<ParmaRun>,
}

/// Tables I–III: T0 and the four ParMA tests run from it.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// T0 … T4.
    pub tests: Vec<Table2Test>,
}

impl Table2 {
    /// Table II's imbalance cell: as in the paper, the peak of test `t`
    /// against the *T0* mean.
    pub fn imb_pct(&self, t: usize, d: Dim) -> f64 {
        let di = d.as_usize();
        (self.tests[t].stats[di].max / self.tests[0].stats[di].mean - 1.0) * 100.0
    }

    /// How many ParMA tests ended with no more boundary copies than T0.
    pub fn boundary_not_grown(&self) -> usize {
        let t0 = self.tests[0].boundary_copies;
        self.tests[1..]
            .iter()
            .filter(|t| t.boundary_copies <= t0)
            .count()
    }
}

/// Tables I–III: the global graph partitioner (PHG stand-in) to
/// `scale.nparts` parts, then ParMA T1–T4 each from that partition.
pub fn table2(scale: AaaScale, inspect: Inspect) -> Table2 {
    let serial = aaa_mesh(scale.nr, scale.nz);
    let timer = Timer::start();
    let labels = partition_mesh(&serial, scale.nparts);
    let t0_seconds = timer.seconds();
    let q0 = PartitionQuality::compute(&serial, &labels, scale.nparts);
    let mut tests = vec![Table2Test {
        name: "T0",
        method: "Graph (PHG stand-in)".to_string(),
        seconds: t0_seconds,
        stats: Dim::ALL.map(|d| q0.stats(d)),
        boundary_copies: q0.total_boundary_copies() as u64,
        run: None,
    }];
    for (name, priority) in TABLE1 {
        let run = parma_run(
            &serial,
            &labels,
            scale,
            priority,
            ImproveOpts::new().tol(TOL),
            inspect,
        );
        tests.push(Table2Test {
            name,
            method: format!("ParMA {priority}"),
            seconds: run.report.seconds,
            stats: Dim::ALL.map(|d| run.after.stats(d)),
            boundary_copies: run.boundary_copies,
            run: Some(run),
        });
    }
    Table2 { tests }
}

// ---- Fig 12 -----------------------------------------------------------

/// Fig 12: per-part counts before and after ParMA test T2
/// (`Vtx = Edge > Rgn`) on the T0 partition.
pub fn fig12(scale: AaaScale, inspect: Inspect) -> ParmaRun {
    let serial = aaa_mesh(scale.nr, scale.nz);
    let labels = partition_mesh(&serial, scale.nparts);
    parma_run(
        &serial,
        &labels,
        scale,
        "Vtx = Edge > Rgn",
        ImproveOpts::new().tol(TOL),
        inspect,
    )
}

// ---- ParMA ablation ---------------------------------------------------

/// The Table II T1 configuration (`Vtx > Rgn`) with each ParMA mechanism
/// disabled in turn: `(config name, run)`, the full configuration first.
pub fn ablation(scale: AaaScale, inspect: Inspect) -> Vec<(&'static str, ParmaRun)> {
    let serial = aaa_mesh(scale.nr, scale.nz);
    let labels = partition_mesh(&serial, scale.nparts);
    let full = ImproveOpts::new().tol(TOL);
    [
        ("full ParMA", full),
        ("- admission handshake", full.handshake(false)),
        ("- peak caps", full.peak_caps(false)),
        ("- strict selection", full.strict_selection(false)),
    ]
    .into_iter()
    .map(|(name, opts)| {
        (
            name,
            parma_run(&serial, &labels, scale, "Vtx > Rgn", opts, inspect),
        )
    })
    .collect()
}

// ---- §III-A Mira: local splitting -------------------------------------

/// Scale of the local-split scenario.
#[derive(Debug, Clone, Copy)]
pub struct MiraParams {
    /// AAA-proxy cross-section lattice resolution.
    pub nr: usize,
    /// AAA-proxy axial layers.
    pub nz: usize,
    /// Parts of the global partition.
    pub coarse: usize,
    /// Local split factor: every coarse part becomes `k` parts.
    pub k: usize,
    /// Ranks.
    pub nranks: usize,
}

impl MiraParams {
    /// The 240k-tet mesh, 16 parts locally split ×16 → 256 parts on 4
    /// ranks (the paper: 16,384 parts ×96 → 1.5M).
    pub fn paper() -> MiraParams {
        MiraParams {
            nr: 20,
            nz: 100,
            coarse: 16,
            k: 16,
            nranks: 4,
        }
    }

    /// The [`AaaScale::small`] mesh, 4 parts ×8 → 32 parts on 2 ranks.
    pub fn small() -> MiraParams {
        MiraParams {
            nr: 8,
            nz: 40,
            coarse: 4,
            k: 8,
            nranks: 2,
        }
    }

    /// The AAA scale of the locally split partition.
    pub fn fine(&self) -> AaaScale {
        AaaScale {
            nr: self.nr,
            nz: self.nz,
            nparts: self.coarse * self.k,
            nranks: self.nranks,
        }
    }
}

/// Result of [`mira_local_split`].
#[derive(Debug, Clone)]
pub struct Mira {
    /// Peak vertex imbalance % of the coarse global partition.
    pub coarse_vtx_pct: f64,
    /// The same after every part is split locally ×k.
    pub split_vtx_pct: f64,
    /// ParMA `Vtx > Rgn` on the split partition.
    pub run: ParmaRun,
}

impl Mira {
    /// Vertex-imbalance points ParMA recovered.
    pub fn gain_points(&self) -> f64 {
        self.run.before.imbalance_pct(Dim::Vertex) - self.run.after.imbalance_pct(Dim::Vertex)
    }
}

/// §III-A's Mira experiment: partition to `coarse` parts, split each part
/// independently ×`k`, then run ParMA `Vtx > Rgn` on the split partition.
pub fn mira_local_split(p: MiraParams, inspect: Inspect) -> Mira {
    let fine = p.fine();
    let serial = aaa_mesh(p.nr, p.nz);
    let coarse_labels = partition_mesh(&serial, p.coarse);
    let coarse_vtx_pct =
        PartitionQuality::compute(&serial, &coarse_labels, p.coarse).imbalance_pct(Dim::Vertex);
    let fine_labels = split_labels(&serial, &coarse_labels, p.coarse, p.k);
    let split_vtx_pct =
        PartitionQuality::compute(&serial, &fine_labels, fine.nparts).imbalance_pct(Dim::Vertex);
    let run = parma_run(
        &serial,
        &fine_labels,
        fine,
        "Vtx > Rgn",
        ImproveOpts::new().tol(TOL),
        inspect,
    );
    Mira {
        coarse_vtx_pct,
        split_vtx_pct,
        run,
    }
}

// ---- Fig 13 and §III-B: adaptation with the partition frozen ----------

/// Refine `mesh` against `size` with every child staying on its parent's
/// part (tag inheritance — no balancing); returns the refinement counts
/// and the adapted mesh's element labels.
fn refine_frozen(
    mesh: &mut Mesh,
    labels: &[PartId],
    size: &SizeField,
) -> (RefineStats, Vec<PartId>) {
    let d = mesh.elem_dim_t();
    let tid = mesh.tags_mut().declare("part", TagKind::Int, 1);
    for e in mesh.snapshot(d) {
        mesh.tags_mut().set_int(tid, e, labels[e.idx()] as i64);
    }
    let stats = refine(mesh, size, None, RefineOpts::default());
    let mut adapted = vec![0 as PartId; mesh.index_space(d)];
    for e in mesh.iter(d) {
        adapted[e.idx()] = mesh.tags().get_int(tid, e).expect("untagged element") as PartId;
    }
    (stats, adapted)
}

fn part_loads(mesh: &Mesh, labels: &[PartId], nparts: usize) -> Vec<f64> {
    let mut loads = vec![0f64; nparts];
    for e in mesh.iter(mesh.elem_dim_t()) {
        loads[labels[e.idx()] as usize] += 1.0;
    }
    loads
}

/// Scale of the Fig 13 scenario.
#[derive(Debug, Clone, Copy)]
pub struct Fig13Params {
    /// Wing-box resolution.
    pub n: usize,
    /// Parts.
    pub nparts: usize,
    /// Size-field target edge length at the shock.
    pub hmin: f64,
}

impl Fig13Params {
    /// 27,648 tets on 96 parts, `hmin` 0.016 (the paper: 46M → 160M
    /// elements on 1024 parts).
    pub fn paper() -> Fig13Params {
        Fig13Params {
            n: 24,
            nparts: 96,
            hmin: 0.016,
        }
    }

    /// 7,680 tets on 32 parts, `hmin` 0.02.
    pub fn small() -> Fig13Params {
        Fig13Params {
            n: 16,
            nparts: 32,
            hmin: 0.02,
        }
    }
}

/// Result of [`fig13`].
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Elements before adaptation.
    pub initial_elements: usize,
    /// Refinement counts of the frozen-partition run.
    pub refined: RefineStats,
    /// Per-part adapted element counts, partition frozen through
    /// adaptation.
    pub loads: Vec<f64>,
    /// The same when the initial mesh is partitioned by predicted
    /// post-adaptation element counts (§III-B's remedy).
    pub predictive_loads: Vec<f64>,
}

impl Fig13 {
    /// Per-part `N / avg` of the frozen-partition run.
    pub fn ratios(&self) -> Vec<f64> {
        let avg = self.loads.iter().sum::<f64>() / self.loads.len() as f64;
        self.loads.iter().map(|&l| l / avg).collect()
    }

    /// Peak element imbalance % of the frozen-partition run.
    pub fn peak_pct(&self) -> f64 {
        (imbalance(&self.loads) - 1.0) * 100.0
    }

    /// Parts more than 20% over the average.
    pub fn parts_over_20(&self) -> usize {
        self.ratios().iter().filter(|&&r| r > 1.2).count()
    }

    /// Parts under half the average.
    pub fn parts_under_half(&self) -> usize {
        self.ratios().iter().filter(|&&r| r < 0.5).count()
    }

    /// Peak element imbalance % with predictive balancing.
    pub fn predictive_peak_pct(&self) -> f64 {
        (imbalance(&self.predictive_loads) - 1.0) * 100.0
    }
}

/// Fig 13: per-part element counts of a wing mesh refined against the
/// oblique-shock size field with no load balancing before adaptation, and
/// with the initial mesh partitioned by predicted element counts instead.
pub fn fig13(p: Fig13Params) -> Fig13 {
    let size = SizeField::shock(shock_plane_distance, p.hmin, 0.12, 0.015);
    let mut mesh = wing_mesh(p.n);
    let initial_elements = mesh.num_elems();
    let labels = partition_mesh(&mesh, p.nparts);
    let (refined, adapted) = refine_frozen(&mut mesh, &labels, &size);
    let loads = part_loads(&mesh, &adapted, p.nparts);

    let mut mesh = wing_mesh(p.n);
    let labels = partition_mesh_weighted(&mesh, p.nparts, |e| element_weight(&mesh, e, &size));
    let (_, adapted) = refine_frozen(&mut mesh, &labels, &size);
    let predictive_loads = part_loads(&mesh, &adapted, p.nparts);
    Fig13 {
        initial_elements,
        refined,
        loads,
        predictive_loads,
    }
}

/// Scale of the heavy-part-splitting scenario.
#[derive(Debug, Clone, Copy)]
pub struct HeavySplitParams {
    /// Wing-box resolution.
    pub n: usize,
    /// Parts.
    pub nparts: usize,
    /// Ranks.
    pub nranks: usize,
    /// Size-field target edge length at the shock.
    pub hmin: f64,
}

impl HeavySplitParams {
    /// 7,680 tets on 32 parts refined to 93k at `hmin` 0.012, 4 ranks.
    pub fn paper() -> HeavySplitParams {
        HeavySplitParams {
            n: 16,
            nparts: 32,
            nranks: 4,
            hmin: 0.012,
        }
    }

    /// The same mesh and partition refined to 30k at `hmin` 0.02 — the
    /// spike cluster still stalls diffusion.
    pub fn small() -> HeavySplitParams {
        HeavySplitParams {
            hmin: 0.02,
            ..HeavySplitParams::paper()
        }
    }
}

/// One repair strategy of [`heavy_split`].
#[derive(Debug, Clone)]
pub struct Repair {
    /// Element imbalance % before.
    pub before_pct: f64,
    /// Element imbalance % after.
    pub after_pct: f64,
    /// Wall-clock seconds of the repair.
    pub seconds: f64,
    /// The diffusion's outcome and trajectory.
    pub report: ImproveReport,
}

/// Result of [`heavy_split`].
#[derive(Debug, Clone)]
pub struct HeavySplit {
    /// Elements of the adapted mesh.
    pub elements: usize,
    /// Diffusion (`improve` on elements) alone.
    pub diffusion: Repair,
    /// Heavy part splitting, then the same diffusion.
    pub split_diffusion: Repair,
}

/// §III-B: the Fig 13 state (a cluster of neighbouring heavy parts along
/// the shock front) repaired from identical inputs by diffusion alone and
/// by heavy part splitting followed by diffusion.
pub fn heavy_split(p: HeavySplitParams, inspect: Inspect) -> HeavySplit {
    let mut mesh = wing_mesh(p.n);
    let labels = partition_mesh(&mesh, p.nparts);
    let size = SizeField::shock(shock_plane_distance, p.hmin, 0.12, 0.02);
    let (_, labels) = refine_frozen(&mut mesh, &labels, &size);
    let pri: Priority = "Rgn".parse().expect("priority list");
    let run = |split: bool| -> Repair {
        rank0(pumi_pcu::execute(p.nranks, |c| {
            let map = PartMap::contiguous(p.nparts, c.nranks());
            let mut dm = distribute(c, map, &mesh, &labels);
            let before_pct = EntityLoads::gather(c, &dm).imbalance_pct(Dim::Region);
            let timer = Timer::start();
            if split {
                heavy_part_split(c, &mut dm);
            }
            let report = improve(c, &mut dm, &pri, ImproveOpts::new().max_iters(12));
            let seconds = timer.seconds();
            let after_pct = EntityLoads::gather(c, &dm).imbalance_pct(Dim::Region);
            inspect(c, &dm);
            (c.rank() == 0).then_some(Repair {
                before_pct,
                after_pct,
                seconds,
                report,
            })
        }))
    };
    HeavySplit {
        elements: mesh.num_elems(),
        diffusion: run(false),
        split_diffusion: run(true),
    }
}

// ---- §II-D: hybrid communication and architecture-aware boundaries ----

/// Scale of the hybrid-communication scenario.
#[derive(Debug, Clone, Copy)]
pub struct HybridParams {
    /// AAA-proxy lattice resolution (`nz = 4n`).
    pub n: usize,
    /// Parts = ranks of the machine sweeps (a multiple of 8).
    pub nparts: usize,
}

impl HybridParams {
    /// 24k tets on 16 parts.
    pub fn paper() -> HybridParams {
        HybridParams { n: 10, nparts: 16 }
    }

    /// 5k tets on 16 parts.
    pub fn small() -> HybridParams {
        HybridParams { n: 6, nparts: 16 }
    }
}

/// Cores per node of the two-level machine.
pub const CORES_PER_NODE: usize = 8;

/// One width of the single-node ring sweep.
#[derive(Debug, Clone, Copy)]
pub struct RingRow {
    /// Communicating threads.
    pub threads: usize,
    /// Exchange rounds.
    pub rounds: usize,
    /// World traffic of all rounds.
    pub traffic: TrafficReport,
    /// Wall-clock seconds of all rounds.
    pub seconds: f64,
}

/// One machine model of the boundary sweep.
#[derive(Debug, Clone, Copy)]
pub struct MachineRow {
    /// Row label.
    pub name: &'static str,
    /// Boundary entity copies whose peer part is on the same node.
    pub on_node: usize,
    /// Boundary entity copies whose peer part is on another node.
    pub off_node: usize,
    /// Off-node bytes of one boundary synchronization round.
    pub sync_off_node_bytes: u64,
    /// Bytes of mesh storage over all parts.
    pub mesh_bytes: u64,
}

impl MachineRow {
    /// Off-node share of the boundary copies, in [0, 1].
    pub fn off_node_share(&self) -> f64 {
        self.off_node as f64 / (self.on_node + self.off_node).max(1) as f64
    }
}

/// Result of [`hybrid_comm`].
#[derive(Debug, Clone)]
pub struct Hybrid {
    /// Elements of the distributed mesh.
    pub elements: usize,
    /// 1..=32 communicating threads on one node.
    pub ring: Vec<RingRow>,
    /// The same partition on a flat and on a two-level machine.
    pub machines: [MachineRow; 2],
    /// Off-node share of vertices under a machine-oblivious part
    /// numbering.
    pub oblivious_vtx_share: f64,
    /// The same under node-then-core partitioning.
    pub hybrid_vtx_share: f64,
}

/// §II-D: (1) PCU phased neighbour exchange with 1..=32 communicating
/// ranks on one node; (2) one mesh distributed on a flat machine (every
/// part its own node) and on a two-level one; (3) node-then-core
/// partitioning against a machine-oblivious numbering of the same parts.
pub fn hybrid_comm(p: HybridParams, inspect: Inspect) -> Hybrid {
    let ring = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|threads| {
            let rounds = 64usize;
            let payload = 4096usize;
            let machine = MachineModel::new(1, threads);
            rank0(execute_opts(machine, WorldOpts::default(), |c| {
                c.reset_traffic();
                c.barrier();
                let timer = Timer::start();
                for _ in 0..rounds {
                    let mut ex = Exchange::new(c);
                    let next = (c.rank() + 1) % c.nranks();
                    let prev = (c.rank() + c.nranks() - 1) % c.nranks();
                    if next != c.rank() {
                        ex.to(next).put_bytes(&vec![1u8; payload]);
                        ex.to(prev).put_bytes(&vec![2u8; payload]);
                    }
                    let got = ex.finish();
                    if c.nranks() > 1 {
                        assert!(!got.is_empty());
                    }
                }
                c.barrier();
                let seconds = timer.seconds();
                (c.rank() == 0).then(|| RingRow {
                    threads,
                    rounds,
                    traffic: c.traffic(),
                    seconds,
                })
            }))
        })
        .collect();

    let serial = aaa_mesh(p.n, 4 * p.n);
    let labels = partition_mesh(&serial, p.nparts);
    let nodes = p.nparts / CORES_PER_NODE;
    let machines = [
        ("flat (1 core/node)", MachineModel::new(p.nparts, 1)),
        (
            "2-level (8 cores/node)",
            MachineModel::new(nodes, CORES_PER_NODE),
        ),
    ]
    .map(|(name, machine)| {
        rank0(execute_opts(machine, WorldOpts::default(), |c| {
            let map = PartMap::contiguous(p.nparts, p.nparts);
            let dm = distribute(c, map, &serial, &labels);
            let split = boundary_traffic_split(&dm, machine);
            // §II-D: an on-node boundary entity "exists implicitly in shared
            // memory"; the bytes our explicit copies spend on them is the
            // saving a shared-memory part representation would realize.
            let mesh_bytes = dm.global_sum(c, |part| part.mesh.memory_usage().total() as u64);
            // One boundary synchronization round: every part sends one u64
            // per shared entity copy to its holder. The meters are shared by
            // the world, so they are reset and read between two barriers:
            // after every rank is done sending, before any rank sends again.
            c.barrier();
            c.reset_traffic();
            c.barrier();
            let mut ex = PartExchange::new(c, &dm.map);
            for part in &dm.parts {
                for (e, remotes) in part.shared_entities() {
                    for &(q, ridx) in remotes {
                        let w = ex.to(part.id, q);
                        w.put_u32(ridx);
                        w.put_u64(part.gid_of(e));
                    }
                }
            }
            let _ = ex.finish();
            c.barrier();
            let sync_off_node_bytes = c.traffic().off_node_bytes;
            c.barrier();
            inspect(c, &dm);
            (c.rank() == 0).then(|| MachineRow {
                name,
                on_node: split.on_node_total(),
                off_node: split.off_node_total(),
                sync_off_node_bytes,
                mesh_bytes,
            })
        }))
    });

    // "first partitioning a mesh into nodes and subsequently to the cores
    // on the nodes" — recursive bisection numbers `labels` node-major on a
    // power-of-two node count, so they are that partition. Compared against
    // a machine-oblivious assignment of the same number of parts (part ids
    // permuted, as a partitioner with no machine knowledge would produce).
    let oblivious: Vec<PartId> = labels
        .iter()
        .map(|&q| (q * 7 + 3) % p.nparts as PartId)
        .collect();
    Hybrid {
        elements: serial.num_elems(),
        ring,
        machines,
        oblivious_vtx_share: off_node_share(&serial, &oblivious, CORES_PER_NODE, Dim::Vertex),
        hybrid_vtx_share: off_node_share(&serial, &labels, CORES_PER_NODE, Dim::Vertex),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_consistent() {
        assert_eq!(AaaScale::small().elements(), 6 * 8 * 8 * 40);
        assert!(AaaScale::paper().elements() > 100_000);
        assert_eq!(MiraParams::small().fine().nparts, 32);
    }

    #[test]
    fn aaa_test_mesh_is_valid() {
        let s = AaaScale::small();
        let m = aaa_mesh(s.nr, s.nz);
        assert_eq!(m.num_elems(), s.elements());
        m.assert_valid();
    }
}
