//! The fixed names: workloads, end-to-end metrics with their bounds, and
//! per-layer metrics. `BENCHMARK.json` at the repository root repeats these
//! lists; `tests/harness.rs` checks the two agree.

/// One workload: a set of inputs that stresses a known subset of layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// predict → balance → adapt → touch-up rounds under a moving shock.
    AdaptCycle,
    /// One `core::migrate` call per step moving a 5 % band per part.
    MigrateBand,
    /// Element-loop assembly + depth-2 halo `Add` sync.
    HaloSync,
    /// All-to-all phased exchange on a wide simulated world.
    WideExchange,
    /// Base + delta checkpoint write.
    CkptWrite,
    /// N→M collective read + 8-slice serve restore.
    CkptRestore,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::AdaptCycle,
        Workload::MigrateBand,
        Workload::HaloSync,
        Workload::WideExchange,
        Workload::CkptWrite,
        Workload::CkptRestore,
    ];

    /// The fixed name later issues refer to.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdaptCycle => "adapt_cycle",
            Workload::MigrateBand => "migrate_band",
            Workload::HaloSync => "halo_sync",
            Workload::WideExchange => "wide_exchange",
            Workload::CkptWrite => "ckpt_write",
            Workload::CkptRestore => "ckpt_restore",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// An end-to-end metric: lower is better for all of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
///
/// The three timing bounds are as wide as the contract allows because this
/// 2-vCPU box's own run-to-run spread of a 12 s run is 2–10 % (README,
/// "First measurements"); the counts are exact and keep the tight bounds.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "offnode_bytes",
        unit: "B",
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_load_pct",
        unit: "%",
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.10,
    },
];

/// The per-layer metrics every workload reports with `--trace 1`
/// (0 where the layer is idle on that workload).
pub const PER_LAYER: [(&str, &str); 64] = [
    ("pcu.exchange_s", "s"),
    ("pcu.envelope_ns", "ns"),
    ("pcu.msgs", "count"),
    ("pcu.offnode_msgs", "count"),
    ("pcu.onnode_bytes", "B"),
    ("pcu.offnode_bytes", "B"),
    ("pcu.barrier_wait_s", "s"),
    ("pcu.collective_us", "us"),
    ("pcu.spawn_s", "s"),
    ("pcu.hung_blocks", "count"),
    ("core.distribute_s", "s"),
    ("core.migrate_s", "s"),
    ("core.migrate_us_per_elem", "us"),
    ("core.migrate_elems", "count"),
    ("core.migrate_ents_sent", "count"),
    ("core.overlap_grow_s", "s"),
    ("core.ghost_copies", "count"),
    ("field.sync_s", "s"),
    ("field.sync_first_s", "s"),
    ("field.sync_bytes", "B"),
    ("mesh.elem_loop_s", "s"),
    ("mesh.elem_loop_ns_per_elem", "ns"),
    ("meshgen.generate_s", "s"),
    ("partition.partition_s", "s"),
    ("partition.initial_imbalance_pct", "%"),
    ("parma.improve_s", "s"),
    ("parma.touchup_s", "s"),
    ("parma.elems_moved", "count"),
    ("parma.rounds_improved", "count"),
    ("adapt.stamp_s", "s"),
    ("adapt.adapt_s", "s"),
    ("adapt.us_per_op", "us"),
    ("adapt.splits", "count"),
    ("adapt.collapses", "count"),
    ("adapt.elements", "count"),
    ("adapt.collapse_yield", "ratio"),
    ("adapt.pred_err_pct", "%"),
    ("adapt.serial_step_s", "s"),
    ("io.write_base_s", "s"),
    ("io.write_delta_s", "s"),
    ("io.write_mb_per_s", "MB/s"),
    ("io.base_bytes", "B"),
    ("io.delta_bytes", "B"),
    ("io.disk_bytes", "B"),
    ("io.read_s", "s"),
    ("io.read_bytes", "B"),
    ("io.read_elems_moved", "count"),
    ("serve.open_s", "s"),
    ("serve.restore_s", "s"),
    ("serve.slice_s", "s"),
    ("serve.chunk_hits", "count"),
    ("serve.chunk_misses", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.disk_bytes", "B"),
    ("serve.raw_bytes", "B"),
    ("check.verify_s", "s"),
    ("io.hash_s", "s"),
    ("obs.report_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("step.first_s", "s"),
    ("step.samples", "count"),
    ("step.tail_s", "s"),
    ("step.tail_pctile", "count"),
];

/// The per-layer metrics for which a higher value is the better one (every
/// other per-layer metric, like every end-to-end metric, is better lower).
pub const HIGHER_IS_BETTER: [&str; 6] = [
    "io.write_mb_per_s",
    "serve.hit_ratio",
    "serve.chunk_hits",
    "adapt.collapse_yield",
    "parma.rounds_improved",
    "step.samples",
];
