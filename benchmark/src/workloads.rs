//! The six workloads. Each `*_block` function is one block: set-up from
//! the seed, warm-up steps, timed steps, checks. All library work goes
//! through `crate::calls`.

use crate::calls::{self, AdaptLoop, Comm, DistField, DistMesh, MachineModel, Overlap, Plans};
use crate::harness::{Block, Cx, RunCfg, Scale, StepOut, Steps};
use crate::metrics::Workload;
use crate::stats::median;
use crate::trace::{Phase, Recorder};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// Mesh worlds: 4 ranks as 2 nodes × 2 cores, the smallest machine on which
/// the on-node / off-node split exists.
fn mesh_machine() -> MachineModel {
    MachineModel::new(2, 2)
}

/// Problem size and step counts of one block.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Mesh resolution (cells per side), or nodes of the wide world.
    pub n: usize,
    /// Warm-up steps per block.
    pub warm: usize,
    /// Timed steps per block.
    pub timed: usize,
}

/// The block plan of `cfg`'s workload at its scale.
pub fn plan(cfg: &RunCfg) -> Plan {
    let full = cfg.scale == Scale::Full;
    let p = |n, warm, timed| Plan { n, warm, timed };
    match (cfg.workload, full) {
        // One period of the shock's triangle wave per block.
        (Workload::AdaptCycle, true) => p(96, 2, 12),
        (Workload::AdaptCycle, false) => p(16, 1, 4),
        (Workload::MigrateBand, true) => p(14, 2, 24),
        (Workload::MigrateBand, false) => p(4, 1, 4),
        (Workload::HaloSync, true) => p(14, 4, 40),
        (Workload::HaloSync, false) => p(4, 1, 4),
        // n = nodes of `WIDE_CORES` cores each: 16 × 16 = 256 ranks.
        (Workload::WideExchange, true) => p(16, 2, 16),
        (Workload::WideExchange, false) => p(2, 1, 3),
        (Workload::CkptWrite, true) => p(160, 2, 20),
        (Workload::CkptWrite, false) => p(12, 1, 10),
        (Workload::CkptRestore, true) => p(110, 1, 6),
        (Workload::CkptRestore, false) => p(12, 1, 2),
    }
}

/// Timed steps one block of `cfg` attempts.
pub fn timed_steps(cfg: &RunCfg) -> usize {
    plan(cfg).timed
}

/// Run one block of the block's workload.
pub fn run_block(b: &mut Block) {
    match b.run.workload {
        Workload::AdaptCycle => adapt_cycle(b),
        Workload::MigrateBand => migrate_band(b),
        Workload::HaloSync => halo_sync(b),
        Workload::WideExchange => wide_exchange(b),
        Workload::CkptWrite => ckpt_write(b),
        Workload::CkptRestore => ckpt_restore(b),
    }
}

/// SplitMix64 finalizer: the benchmark's only source of pseudo-randomness.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in [0, 1) from a seed and a stream id.
fn unit(seed: u64, stream: u64) -> f64 {
    (mix(seed ^ mix(stream)) >> 11) as f64 / (1u64 << 53) as f64
}

/// The probes and end-of-run report every traced mesh world ends with.
fn traced_epilogue(cx: &mut Cx, collective_probe: bool) {
    if !cx.rec.is_on() {
        return;
    }
    cx.rec.at(Phase::Probe, 0);
    if collective_probe {
        let us = calls::collective_probe(&cx.rec, cx.c, 1000);
        cx.values.insert("pcu.collective_us", us);
    }
    calls::world_report(&cx.rec, cx.c);
}

// ---------------------------------------------------------- adapt_cycle ----

const SHOCK_PERIOD: usize = 12;

/// Position of the shock front in round `r`: a triangle wave sweeping the
/// range of `x + 0.4 y` over the unit square.
///
/// The seed does not reach this workload. The adaptive loop amplifies any
/// change of its input: shifting the front by 5 % of one round's travel
/// moved the off-node bytes of a block by 23 % and its run time by 16 %
/// (README, "What the seed changes"), so a seeded phase would turn every
/// comparison between two seeds into a comparison of two different jobs.
fn shock_pos(r: usize) -> f64 {
    let t = (r % SHOCK_PERIOD) as f64 / SHOCK_PERIOD as f64;
    0.15 + 1.1 * (1.0 - (2.0 * t - 1.0).abs())
}

fn shock_size(n: usize, r: usize) -> calls::SizeField {
    let h0 = 1.0 / n as f64;
    calls::shock_size(shock_pos(r), h0 / 4.0, 4.0 * h0, h0)
}

struct AdaptSteps {
    lp: AdaptLoop,
    n: usize,
    last: calls::Round,
    rounds: Vec<calls::Round>,
    peak_load: Vec<f64>,
}

impl Steps for AdaptSteps {
    fn step(&mut self, cx: &mut Cx, i: usize, timed: bool) -> bool {
        let size = shock_size(self.n, i);
        self.last = cx.timed(|rec, c| self.lp.round(rec, c, &size));
        if timed {
            self.rounds.push(self.last);
        }
        true
    }

    fn check(&mut self, cx: &mut Cx, _i: usize, timed: bool) -> bool {
        if timed {
            self.peak_load.push(calls::peak_load_pct(cx.c, &self.lp.dm));
        }
        calls::check_dist(&cx.rec, cx.c, &self.lp.dm)
    }
}

fn adapt_cycle(b: &mut Block) {
    let Plan { n, warm, timed } = plan(&b.run);
    let machine = mesh_machine();
    let nparts = 16;
    let serial = calls::gen_tri(&b.rec, n, None);
    let labels = calls::partition(&b.rec, &serial, nparts, &machine);
    b.set(
        "partition.initial_imbalance_pct",
        calls::label_imbalance_pct(&serial, &labels, nparts),
    );
    b.world(machine, None, |cx| {
        let dm = calls::distribute(&cx.rec, cx.c, &serial, &labels, nparts);
        let mut st = AdaptSteps {
            lp: AdaptLoop::new(dm, machine),
            n,
            last: calls::Round::default(),
            rounds: Vec::new(),
            peak_load: Vec::new(),
        };
        cx.setup_done();
        cx.run(warm, timed, &mut st);
        let sum = |f: fn(&calls::Round) -> u64| st.rounds.iter().map(f).sum::<u64>() as f64;
        let errs: Vec<f64> = st.rounds.iter().map(|r| r.pred_err_pct).collect();
        cx.values.insert("peak_load_pct", median(&st.peak_load));
        cx.values.insert("adapt.splits", sum(|r| r.splits));
        cx.values.insert("adapt.collapses", sum(|r| r.collapses));
        cx.values.insert("adapt.vetoed", sum(|r| r.vetoed));
        cx.values.insert("adapt.elements", st.last.elements as f64);
        cx.values.insert("adapt.pred_err_pct", median(&errs));
        cx.values.insert("parma.elems_moved", sum(|r| r.moved));
        cx.values
            .insert("parma.rounds_improved", sum(|r| u64::from(r.improved)));
        traced_epilogue(cx, true);
    });
    // Single-threaded baseline: the same size-field sequence through serial
    // refine + coarsen on one part. Once per run, it is slow.
    if b.rec.is_on() && b.index == 1 {
        b.rec.at(Phase::Probe, 0);
        let mut mesh = serial;
        let rounds: Vec<f64> = (0..5)
            .map(|r| {
                let size = shock_size(n, r);
                let t0 = b.rec.now_ns();
                calls::serial_adapt(&b.rec, &mut mesh, &size);
                (b.rec.now_ns() - t0) as f64 * 1e-9
            })
            .collect();
        b.set("adapt.serial_step_s", median(&rounds));
    }
}

// --------------------------------------------------------- migrate_band ----

const TET_PARTS: usize = 8;

struct MigrateSteps<'a> {
    dm: DistMesh,
    lattice: &'a [[f64; 3]],
    total: u64,
    plans: Plans,
    elems: u64,
    ents: u64,
}

impl Steps for MigrateSteps<'_> {
    fn prepare(&mut self, cx: &mut Cx, i: usize) {
        let n = TET_PARTS as u32;
        let forward = i.is_multiple_of(2);
        self.plans = calls::band_plans(cx.c, &self.dm, self.lattice, 0.05, |p| {
            if forward {
                (p + 1) % n
            } else {
                (p + n - 1) % n
            }
        });
    }

    fn step(&mut self, cx: &mut Cx, _i: usize, timed: bool) -> bool {
        let (elems, ents) = cx.timed(|rec, c| calls::migrate(rec, c, &mut self.dm, &self.plans));
        if timed {
            self.elems += elems;
            self.ents += ents;
        }
        true
    }

    fn check(&mut self, cx: &mut Cx, i: usize, _timed: bool) -> bool {
        let conserved = calls::global_elems(cx.c, &self.dm) == self.total;
        conserved && (!i.is_multiple_of(10) || calls::check_dist(&cx.rec, cx.c, &self.dm))
    }
}

/// The jittered tet mesh, its 8-part labels, and the element centroids of
/// the unjittered lattice (indexed by element id).
fn tet_setup(b: &mut Block, n: usize) -> (calls::Mesh, Vec<u32>, Vec<[f64; 3]>) {
    let (serial, lattice) = calls::gen_tet(&b.rec, n, (0.15, b.run.seed));
    let labels = calls::partition(&b.rec, &serial, TET_PARTS, &mesh_machine());
    b.set(
        "partition.initial_imbalance_pct",
        calls::label_imbalance_pct(&serial, &labels, TET_PARTS),
    );
    (serial, labels, lattice)
}

fn migrate_band(b: &mut Block) {
    let Plan { n, warm, timed } = plan(&b.run);
    let (serial, labels, lattice) = tet_setup(b, n);
    let total = calls::num_elems(&serial) as u64;
    b.world(mesh_machine(), None, |cx| {
        let dm = calls::distribute(&cx.rec, cx.c, &serial, &labels, TET_PARTS);
        let mut st = MigrateSteps {
            dm,
            lattice: &lattice,
            total,
            plans: Plans::default(),
            elems: 0,
            ents: 0,
        };
        cx.setup_done();
        cx.run(warm, timed, &mut st);
        cx.values
            .insert("peak_load_pct", calls::peak_load_pct(cx.c, &st.dm));
        cx.values.insert("core.migrate_elems", st.elems as f64);
        cx.values.insert("core.migrate_ents_sent", st.ents as f64);
        traced_epilogue(cx, false);
    });
}

// ------------------------------------------------------------ halo_sync ----

struct HaloSteps<'a> {
    dm: DistMesh,
    ov: Overlap,
    fields: DistField,
    w: [f64; 3],
    serial: &'a calls::Mesh,
    valence: &'a OnceLock<Vec<u32>>,
    first_timed: usize,
    last_timed: usize,
}

impl Steps for HaloSteps<'_> {
    fn step(&mut self, cx: &mut Cx, _i: usize, _timed: bool) -> bool {
        cx.timed(|rec, c| {
            calls::elem_loop(rec, &self.dm, &mut self.fields, self.w);
            calls::sync_add(rec, c, &self.dm, &self.ov, &mut self.fields);
        });
        true
    }

    fn check(&mut self, cx: &mut Cx, i: usize, _timed: bool) -> bool {
        let mut ok = true;
        if i == 0 {
            ok &= calls::check_overlap(&cx.rec, cx.c, &self.dm, &self.ov);
        }
        if i == self.first_timed || i == self.last_timed {
            // The oracle is computed once, by whichever rank gets here first.
            let valence = self
                .valence
                .get_or_init(|| calls::vertex_valences(self.serial));
            ok &= calls::assembled_equals(&cx.rec, cx.c, &self.dm, &self.fields, valence, self.w);
        }
        ok
    }
}

fn halo_sync(b: &mut Block) {
    let Plan { n, warm, timed } = plan(&b.run);
    let seed = b.run.seed;
    // Dyadic weights: sums of them are exact, so "bit for bit" is well
    // defined whatever order the parts add in.
    let w = [3u64, 4, 5].map(|s| (1 + mix(seed ^ s) % 16) as f64 / 8.0);
    let (serial, labels, _) = tet_setup(b, n);
    let valence = OnceLock::new();
    b.world(mesh_machine(), None, |cx| {
        let mut dm = calls::distribute(&cx.rec, cx.c, &serial, &labels, TET_PARTS);
        let load = calls::peak_load_pct(cx.c, &dm);
        let (ov, ghosts) = calls::grow_overlap(&cx.rec, cx.c, &mut dm, 2);
        let fields = calls::vertex_field(&dm, |_| [0.0; 3]);
        let owned = calls::max_rank_elems(cx.c, &dm);
        let mut st = HaloSteps {
            dm,
            ov,
            fields,
            w,
            serial: &serial,
            valence: &valence,
            first_timed: warm,
            last_timed: warm + timed - 1,
        };
        cx.setup_done();
        cx.run(warm, timed, &mut st);
        cx.values.insert("peak_load_pct", load);
        cx.values.insert("core.ghost_copies", ghosts as f64);
        cx.values.insert("mesh.max_rank_elems", owned as f64);
        traced_epilogue(cx, false);
    });
}

// -------------------------------------------------------- wide_exchange ----

/// Cores per node of the wide world.
const WIDE_CORES: usize = 16;

/// The 8 payload bytes rank `src` sends rank `dst` in step `step`.
fn payload(seed: u64, src: usize, dst: usize, step: usize) -> [u8; 8] {
    mix(seed ^ mix(((src as u64) << 40) | ((dst as u64) << 20) | step as u64)).to_le_bytes()
}

struct WideSteps {
    seed: u64,
    out: Vec<[u8; 8]>,
    rx: Option<calls::Received>,
    rx_bytes: u64,
}

impl Steps for WideSteps {
    fn prepare(&mut self, cx: &mut Cx, i: usize) {
        let me = cx.c.rank();
        self.out = (0..cx.c.nranks())
            .map(|dst| payload(self.seed, me, dst, i))
            .collect();
    }

    fn step(&mut self, cx: &mut Cx, _i: usize, _timed: bool) -> bool {
        self.rx = Some(cx.timed(|rec, c| calls::exchange_all(rec, c, &self.out)));
        true
    }

    fn check(&mut self, cx: &mut Cx, i: usize, _timed: bool) -> bool {
        let me = cx.c.rank();
        let seen = self.rx.take().and_then(|mut rx| {
            calls::received_matches(cx.c, &mut rx, |src| payload(self.seed, src, me, i))
        });
        self.rx_bytes = seen.unwrap_or(0);
        seen.is_some()
    }
}

fn wide_exchange(b: &mut Block) {
    let Plan { n, warm, timed } = plan(&b.run);
    let seed = b.run.seed;
    // 2 KiB injected per rank, split over 255 peers: 8 bytes per peer.
    let machine = MachineModel::new(n, WIDE_CORES);
    b.world(machine, Some(256 * 1024), |cx| {
        let mut st = WideSteps {
            seed,
            out: Vec::new(),
            rx: None,
            rx_bytes: 0,
        };
        cx.setup_done();
        cx.run(warm, timed, &mut st);
        let (max, sum) = calls::max_and_sum(cx.c, st.rx_bytes);
        let mean = sum as f64 / cx.c.nranks() as f64;
        cx.values
            .insert("peak_load_pct", 100.0 * max as f64 / mean.max(1.0));
    });
}

// ----------------------------------------------------------- ckpt_write ----

const CKPT_PARTS: usize = 4;
/// Every 97th vertex is touched between base and delta: ≈ 1 %.
const TOUCH_STRIDE: usize = 97;

fn ckpt_field(dm: &DistMesh, seed: u64) -> DistField {
    let k = unit(seed, 6);
    calls::vertex_field(dm, |x| [x[0] + x[1] + k, x[1] * x[2] - k, x[2] - x[0] * k])
}

struct WriteSteps {
    dm: DistMesh,
    fields: DistField,
    root: PathBuf,
    seed: u64,
    base_bytes: u64,
    delta_bytes: u64,
    first_timed: usize,
}

impl WriteSteps {
    fn dir(&self, i: usize) -> PathBuf {
        self.root.join(format!("step-{i}"))
    }
}

impl Steps for WriteSteps {
    fn step(&mut self, cx: &mut Cx, i: usize, _timed: bool) -> bool {
        let dir = self.dir(i);
        let base = cx.timed(|rec, c| calls::write_base(rec, c, &self.dm, &self.fields, &dir));
        let offset = (mix(self.seed ^ 7) as usize).wrapping_add(i);
        calls::touch_vertices(&mut self.dm, &mut self.fields, TOUCH_STRIDE, offset);
        let delta = cx.timed(|rec, c| calls::write_delta(rec, c, &mut self.dm, &self.fields, &dir));
        self.base_bytes = base.unwrap_or(0);
        self.delta_bytes = delta.unwrap_or(0);
        base.is_some() && delta.is_some()
    }

    fn check(&mut self, cx: &mut Cx, i: usize, timed: bool) -> bool {
        let dir = self.dir(i);
        let mut ok = true;
        if timed && (i - self.first_timed).is_multiple_of(10) {
            let live = calls::struct_hash(&cx.rec, cx.c, &self.dm);
            ok = calls::read_checkpoint(&cx.rec, cx.c, &dir)
                .is_some_and(|back| calls::struct_hash(&cx.rec, cx.c, &back.dm) == live);
        }
        // Every rank is past step `i`'s barriers, so none still reads the
        // previous step's directory.
        if cx.c.rank() == 0 && i > 0 {
            let _ = std::fs::remove_dir_all(self.dir(i - 1));
        }
        ok
    }
}

fn ckpt_write(b: &mut Block) {
    let Plan { n, warm, timed } = plan(&b.run);
    let seed = b.run.seed;
    let machine = mesh_machine();
    let serial = calls::gen_tri(&b.rec, n, Some((0.15, seed)));
    let labels = calls::partition(&b.rec, &serial, CKPT_PARTS, &machine);
    b.set(
        "partition.initial_imbalance_pct",
        calls::label_imbalance_pct(&serial, &labels, CKPT_PARTS),
    );
    let root = b.tmp.path().to_path_buf();
    b.world(machine, None, |cx| {
        let dm = calls::distribute(&cx.rec, cx.c, &serial, &labels, CKPT_PARTS);
        let fields = ckpt_field(&dm, seed);
        let load = calls::peak_load_pct(cx.c, &dm);
        let mut st = WriteSteps {
            dm,
            fields,
            root: root.clone(),
            seed,
            base_bytes: 0,
            delta_bytes: 0,
            first_timed: warm,
        };
        cx.setup_done();
        cx.run(warm, timed, &mut st);
        cx.values.insert("peak_load_pct", load);
        cx.values.insert("io.base_bytes", st.base_bytes as f64);
        cx.values.insert("io.delta_bytes", st.delta_bytes as f64);
        traced_epilogue(cx, false);
    });
}

// --------------------------------------------------------- ckpt_restore ----

const SLICES: usize = 8;
const CLIENTS: usize = 2;

fn ckpt_restore(b: &mut Block) {
    let Plan { n, warm, timed } = plan(&b.run);
    let seed = b.run.seed;
    let machine = mesh_machine();
    let serial = calls::gen_tri(&b.rec, n, None);
    let labels = calls::partition(&b.rec, &serial, CKPT_PARTS, &machine);
    b.set(
        "partition.initial_imbalance_pct",
        calls::label_imbalance_pct(&serial, &labels, CKPT_PARTS),
    );
    let total = calls::num_elems(&serial);
    let dir = b.tmp.path().join("ckpt");
    // Set-up: four parts write a v2 base and one delta; the writer's
    // structural hash is the oracle of every restore.
    let written: Mutex<Option<u64>> = Mutex::new(None);
    b.world(machine, None, |cx| {
        let mut dm = calls::distribute(&cx.rec, cx.c, &serial, &labels, CKPT_PARTS);
        let mut fields = ckpt_field(&dm, seed);
        let base = calls::write_base(&cx.rec, cx.c, &dm, &fields, &dir);
        let offset = mix(seed ^ 7) as usize;
        calls::touch_vertices(&mut dm, &mut fields, TOUCH_STRIDE, offset);
        let delta = calls::write_delta(&cx.rec, cx.c, &mut dm, &fields, &dir);
        cx.rec.at(Phase::Check, 0);
        let hash = calls::struct_hash(&cx.rec, cx.c, &dm);
        if cx.c.rank() == 0 && base.is_some() && delta.is_some() {
            *written.lock().expect("no rank panicked holding the lock") = Some(hash);
        }
    });
    let want = *written.lock().expect("world has ended");
    b.setup_done();

    for i in 0..warm + timed {
        let is_timed = i >= warm;
        let mut step = restore_step(b, &dir, i, is_timed, total, want);
        if is_timed && b.run.inject_failure == Some(i - warm) {
            step.ok = false;
        }
        b.push_step(step);
    }
}

/// One restore: collective read on a 2-rank world (4→2, the merge path),
/// then a cold server open and 8 slices pulled by 2 client threads (4→8,
/// the split path).
fn restore_step(
    b: &mut Block,
    dir: &std::path::Path,
    i: usize,
    timed: bool,
    total: usize,
    want: Option<u64>,
) -> StepOut {
    let traced = b.rec.is_on();
    let epoch = b.rec.epoch();
    let step = i as u32;
    let phase = if timed { Phase::Timed } else { Phase::Warmup };
    b.rec.at(phase, step);

    // Segment 1: read. The segment ends when the slower rank has its mesh;
    // traffic and the hash are taken after that, outside the segment.
    let call_ns = b.rec.now_ns();
    let reads = calls::world(MachineModel::new(2, 1), None, b.run.workers, |c: &Comm| {
        let rec = Recorder::new(traced, epoch, c.rank() as u32);
        rec.at(phase, step);
        let back = calls::read_checkpoint(&rec, c, dir);
        let end_ns = rec.now_ns();
        // Past this barrier no rank sends before its own reading, so the
        // smallest reading is the read's traffic (see `Cx::timed`).
        calls::barrier(c);
        let traffic = calls::traffic(c);
        rec.at(Phase::Check, step);
        let hash = back.as_ref().map(|r| calls::struct_hash(&rec, c, &r.dm));
        let stats = back.map(|r| (r.bytes, r.elems_moved));
        (end_ns, traffic, hash, stats, rec.into_spans())
    });
    let read_end = reads.iter().map(|r| r.0).max().unwrap_or(call_ns);
    b.rec
        .push_chain(&[("step", call_ns, read_end), ("io.read", call_ns, read_end)]);
    let traffic = reads
        .iter()
        .map(|r| r.1)
        .reduce(calls::Traffic::min)
        .unwrap_or_default();
    let read_ok = reads.iter().all(|r| r.2.is_some() && r.2 == want);
    let (read_bytes, elems_moved) = reads[0].3.unwrap_or((0, 0));
    for r in reads {
        b.push_track(r.4);
    }

    // Segment 2: serve.
    let serve_start = b.rec.now_ns();
    let (server, slices, tracks) = b.rec.span("step", || {
        let server = calls::serve_open(&b.rec, dir);
        let (slices, tracks) = b.rec.span("serve.restore", || {
            let Some(server) = server.as_ref() else {
                return (Vec::new(), Vec::new());
            };
            std::thread::scope(|s| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|k| {
                        s.spawn(move || {
                            let rec = Recorder::new(traced, epoch, k as u32);
                            rec.at(phase, step);
                            let got: Vec<_> = (k..SLICES)
                                .step_by(CLIENTS)
                                .map(|j| calls::restore_slice(&rec, server, j, SLICES))
                                .collect();
                            (got, rec.into_spans())
                        })
                    })
                    .collect();
                let mut slices = Vec::new();
                let mut tracks = Vec::new();
                for h in clients {
                    let (got, spans) = h.join().expect("client thread panicked");
                    slices.extend(got);
                    tracks.push(spans);
                }
                (slices, tracks)
            })
        });
        (server, slices, tracks)
    });
    let serve_end = b.rec.now_ns();
    for t in tracks {
        b.push_track(t);
    }

    // Check: the eight slices tile the mesh — every element exactly once.
    b.rec.at(Phase::Check, step);
    let mut sizes = Vec::new();
    let mut gids: Vec<u64> = Vec::new();
    let mut all = slices.len() == SLICES;
    for slice in &slices {
        match slice {
            Some(s) => {
                let g = calls::slice_elem_gids(s);
                sizes.push(g.len() as f64);
                gids.extend(g);
            }
            None => all = false,
        }
    }
    gids.sort_unstable();
    gids.dedup();
    let tiles = all && gids.len() == total && sizes.iter().sum::<f64>() as usize == total;

    if let Some(server) = &server {
        let (hits, misses, disk, raw) = calls::serve_stats(server);
        b.set("serve.chunk_hits", hits as f64);
        b.set("serve.chunk_misses", misses as f64);
        b.set("serve.disk_bytes", disk as f64);
        b.set("serve.raw_bytes", raw as f64);
        b.set("io.disk_bytes", (read_bytes + disk) as f64);
    }
    b.set("io.read_bytes", read_bytes as f64);
    b.set("io.read_elems_moved", elems_moved as f64);
    if tiles {
        b.set("peak_load_pct", calls::peak_load_pct_of(&sizes));
    }
    StepOut {
        timed,
        dur_s: ((read_end - call_ns) + (serve_end - serve_start)) as f64 * 1e-9,
        traffic,
        ok: read_ok && tiles,
    }
}
