//! Turn the blocks of a run into the named metrics.

use crate::harness::{BlockOut, RunCfg, RunOut, StepOut};
use crate::metrics::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, tail_percentile};
use crate::trace::{self_times, Phase};
use std::collections::BTreeMap;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

fn timed_steps(b: &BlockOut) -> impl Iterator<Item = &StepOut> {
    b.steps.iter().filter(|s| s.timed)
}

/// The traced (or the untraced) blocks of a run.
fn blocks_of(out: &RunOut, traced: bool) -> Vec<&BlockOut> {
    out.blocks.iter().filter(|b| b.traced == traced).collect()
}

/// Median over `blocks` of `f(block)`.
fn over_blocks(blocks: &[&BlockOut], f: impl Fn(&BlockOut) -> f64) -> f64 {
    median(&blocks.iter().map(|b| f(b)).collect::<Vec<_>>())
}

/// Median over `blocks` of a block's total of `f` over its timed steps.
fn block_total(blocks: &[&BlockOut], f: impl Fn(&StepOut) -> f64) -> f64 {
    over_blocks(blocks, |b| timed_steps(b).map(&f).sum())
}

/// `f` of every timed step of `blocks`, pooled.
fn pooled(blocks: &[&BlockOut], f: impl Fn(&StepOut) -> f64) -> Vec<f64> {
    blocks.iter().flat_map(|b| timed_steps(b).map(&f)).collect()
}

/// Median over `blocks` of the value they reported under `name`.
fn value(blocks: &[&BlockOut], name: &str) -> f64 {
    let xs: Vec<f64> = blocks
        .iter()
        .filter_map(|b| b.values.get(name).copied())
        .collect();
    median(&xs)
}

/// The end-to-end metrics, from the untraced blocks of `out`.
pub fn end_to_end(out: &RunOut) -> Metrics {
    let blocks = blocks_of(out, false);
    let mut m = Metrics::new();
    m.insert("setup_s", over_blocks(&blocks, |b| b.setup_s));
    m.insert("step_s", median(&pooled(&blocks, |s| s.dur_s)));
    m.insert("run_s", block_total(&blocks, |s| s.dur_s));
    m.insert(
        "offnode_bytes",
        block_total(&blocks, |s| s.traffic.off_bytes as f64),
    );
    m.insert("peak_load_pct", value(&blocks, "peak_load_pct"));
    m.insert("peak_rss_mb", out.peak_rss_mb);
    debug_assert!(END_TO_END.iter().all(|e| m.contains_key(e.name)));
    m
}

/// The step-time sample behind `step_s`: its size and tail percentile.
pub fn step_tail(out: &RunOut, traced: bool) -> (usize, Option<(u32, f64)>) {
    let steps = pooled(&blocks_of(out, traced), |s| s.dur_s);
    (steps.len(), tail_percentile(&steps))
}

/// Self time of every span of the traced blocks, flattened for queries.
struct SpanRow {
    name: &'static str,
    phase: Phase,
    block: usize,
    step: u32,
    rank: u32,
    self_ns: u64,
    dur_ns: u64,
}

struct SpanTable(Vec<SpanRow>);

impl SpanTable {
    fn build(blocks: &[(usize, &BlockOut)]) -> SpanTable {
        let mut rows = Vec::new();
        for &(block, b) in blocks {
            for track in &b.tracks {
                for (s, self_ns) in track.iter().zip(self_times(track)) {
                    rows.push(SpanRow {
                        name: s.name,
                        phase: s.phase,
                        block,
                        step: s.step,
                        rank: s.rank,
                        self_ns,
                        dur_ns: s.dur_ns(),
                    });
                }
            }
        }
        SpanTable(rows)
    }

    /// For each (block, step) in `phase`: the slowest rank's summed self
    /// time of spans named `name`, in seconds.
    fn per_step(&self, name: &str, phase: Phase) -> BTreeMap<(usize, u32), f64> {
        let mut per_rank: BTreeMap<(usize, u32, u32), u64> = BTreeMap::new();
        for r in self.0.iter().filter(|r| r.name == name && r.phase == phase) {
            *per_rank.entry((r.block, r.step, r.rank)).or_default() += r.self_ns;
        }
        let mut out: BTreeMap<(usize, u32), f64> = BTreeMap::new();
        for ((block, step, _), ns) in per_rank {
            let e = out.entry((block, step)).or_default();
            *e = e.max(ns as f64 * 1e-9);
        }
        out
    }

    /// Median over steps of [`SpanTable::per_step`].
    fn layer_s(&self, name: &str, phase: Phase) -> f64 {
        median(&self.per_step(name, phase).into_values().collect::<Vec<_>>())
    }

    /// Median over blocks of the block total of [`SpanTable::per_step`].
    fn block_total_s(&self, name: &str, phase: Phase) -> f64 {
        let mut per_block: BTreeMap<usize, f64> = BTreeMap::new();
        for ((block, _), s) in self.per_step(name, phase) {
            *per_block.entry(block).or_default() += s;
        }
        median(&per_block.into_values().collect::<Vec<_>>())
    }

    /// Median inclusive duration of single spans named `name`.
    fn single_s(&self, name: &str, phase: Phase) -> f64 {
        let xs: Vec<f64> = self
            .0
            .iter()
            .filter(|r| r.name == name && r.phase == phase)
            .map(|r| r.dur_ns as f64 * 1e-9)
            .collect();
        median(&xs)
    }

    /// Share of timed-step root spans not covered by any layer span, %.
    fn unattributed_pct(&self) -> f64 {
        let roots = || {
            self.0
                .iter()
                .filter(|r| r.name == "step" && r.phase == Phase::Timed)
        };
        let total: u64 = roots().map(|r| r.dur_ns).sum();
        let own: u64 = roots().map(|r| r.self_ns).sum();
        if total == 0 {
            0.0
        } else {
            100.0 * own as f64 / total as f64
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics, from the traced blocks of `out` (and the untraced
/// ones for the tracing overhead).
pub fn per_layer(cfg: &RunCfg, out: &RunOut) -> Metrics {
    let traced: Vec<(usize, &BlockOut)> = out
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.traced)
        .collect();
    let tb = blocks_of(out, true);
    let t = SpanTable::build(&traced);
    let timed = |name: &str| t.layer_s(name, Phase::Timed);
    let setup = |name: &str| t.block_total_s(name, Phase::Setup);
    let val = |name: &str| value(&tb, name);
    let nsteps = over_blocks(&tb, |b| timed_steps(b).count() as f64);

    let mut m = Metrics::new();

    // pcu
    let exchange_s = timed("pcu.exchange");
    let msgs_per_step = median(&pooled(&tb, |s| s.traffic.msgs() as f64));
    m.insert("pcu.exchange_s", exchange_s);
    m.insert("pcu.envelope_ns", ratio(exchange_s * 1e9, msgs_per_step));
    m.insert("pcu.msgs", block_total(&tb, |s| s.traffic.msgs() as f64));
    m.insert(
        "pcu.offnode_msgs",
        block_total(&tb, |s| s.traffic.off_msgs as f64),
    );
    m.insert(
        "pcu.onnode_bytes",
        block_total(&tb, |s| s.traffic.on_bytes as f64),
    );
    m.insert(
        "pcu.offnode_bytes",
        block_total(&tb, |s| s.traffic.off_bytes as f64),
    );
    m.insert("pcu.barrier_wait_s", timed("pcu.barrier_wait"));
    m.insert("pcu.collective_us", val("pcu.collective_us"));
    m.insert("pcu.spawn_s", setup("pcu.spawn"));
    m.insert("pcu.hung_blocks", out.hung_blocks as f64);

    // core
    let migrate_s = timed("core.migrate");
    m.insert("core.distribute_s", setup("core.distribute"));
    m.insert("core.migrate_s", migrate_s);
    m.insert(
        "core.migrate_us_per_elem",
        ratio(migrate_s * nsteps * 1e6, val("core.migrate_elems")),
    );
    m.insert("core.migrate_elems", val("core.migrate_elems"));
    m.insert("core.migrate_ents_sent", val("core.migrate_ents_sent"));
    m.insert("core.overlap_grow_s", setup("core.overlap_grow"));
    m.insert("core.ghost_copies", val("core.ghost_copies"));

    // field, mesh
    let sync_s = timed("field.sync");
    let loop_s = timed("mesh.elem_loop");
    m.insert("field.sync_s", sync_s);
    m.insert(
        "field.sync_first_s",
        median(
            &t.per_step("field.sync", Phase::Warmup)
                .into_iter()
                .filter(|((_, step), _)| *step == 0)
                .map(|(_, s)| s)
                .collect::<Vec<_>>(),
        ),
    );
    m.insert(
        "field.sync_bytes",
        if cfg.workload == Workload::HaloSync {
            median(&pooled(&tb, |s| s.traffic.bytes() as f64))
        } else {
            0.0
        },
    );
    m.insert("mesh.elem_loop_s", loop_s);
    m.insert(
        "mesh.elem_loop_ns_per_elem",
        ratio(loop_s * 1e9, val("mesh.max_rank_elems")),
    );

    // meshgen, partition
    m.insert("meshgen.generate_s", setup("meshgen.generate"));
    m.insert("partition.partition_s", setup("partition.partition"));
    m.insert(
        "partition.initial_imbalance_pct",
        val("partition.initial_imbalance_pct"),
    );

    // parma, adapt
    let adapt_s = timed("adapt.adapt");
    let (splits, collapses) = (val("adapt.splits"), val("adapt.collapses"));
    m.insert("parma.improve_s", timed("parma.improve"));
    m.insert("parma.touchup_s", timed("parma.touchup"));
    m.insert("parma.elems_moved", val("parma.elems_moved"));
    m.insert("parma.rounds_improved", val("parma.rounds_improved"));
    m.insert("adapt.stamp_s", timed("adapt.stamp"));
    m.insert("adapt.adapt_s", adapt_s);
    m.insert(
        "adapt.us_per_op",
        ratio(adapt_s * nsteps * 1e6, splits + collapses),
    );
    m.insert("adapt.splits", splits);
    m.insert("adapt.collapses", collapses);
    m.insert("adapt.elements", val("adapt.elements"));
    m.insert(
        "adapt.collapse_yield",
        ratio(collapses, collapses + val("adapt.vetoed")),
    );
    m.insert("adapt.pred_err_pct", val("adapt.pred_err_pct"));
    m.insert("adapt.serial_step_s", val("adapt.serial_step_s"));

    // io, serve
    let (base_s, delta_s) = (timed("io.write_base"), timed("io.write_delta"));
    let (base_b, delta_b) = (val("io.base_bytes"), val("io.delta_bytes"));
    m.insert("io.write_base_s", base_s);
    m.insert("io.write_delta_s", delta_s);
    m.insert(
        "io.write_mb_per_s",
        ratio((base_b + delta_b) * 1e-6, base_s + delta_s),
    );
    m.insert("io.base_bytes", base_b);
    m.insert("io.delta_bytes", delta_b);
    m.insert(
        "io.disk_bytes",
        if cfg.workload == Workload::CkptWrite {
            base_b + delta_b
        } else {
            val("io.disk_bytes")
        },
    );
    m.insert("io.read_s", timed("io.read"));
    m.insert("io.read_bytes", val("io.read_bytes"));
    m.insert("io.read_elems_moved", val("io.read_elems_moved"));
    let (hits, misses) = (val("serve.chunk_hits"), val("serve.chunk_misses"));
    m.insert("serve.open_s", timed("serve.open"));
    m.insert("serve.restore_s", timed("serve.restore"));
    m.insert("serve.slice_s", t.single_s("serve.slice", Phase::Timed));
    m.insert("serve.chunk_hits", hits);
    m.insert("serve.chunk_misses", misses);
    m.insert("serve.hit_ratio", ratio(hits, hits + misses));
    m.insert("serve.disk_bytes", val("serve.disk_bytes"));
    m.insert("serve.raw_bytes", val("serve.raw_bytes"));

    // oracles, obs, the traced run itself
    m.insert(
        "check.verify_s",
        t.block_total_s("check.verify", Phase::Check),
    );
    m.insert("io.hash_s", t.block_total_s("io.hash", Phase::Check));
    m.insert("obs.report_s", t.block_total_s("obs.report", Phase::Probe));
    let run_s = |traced: bool| block_total(&blocks_of(out, traced), |s| s.dur_s);
    m.insert(
        "trace.overhead_pct",
        100.0 * (ratio(run_s(true), run_s(false)) - 1.0),
    );
    m.insert("trace.unattributed_pct", t.unattributed_pct());
    m.insert(
        "step.first_s",
        over_blocks(&tb, |b| b.steps.first().map_or(0.0, |s| s.dur_s)),
    );
    let (samples, tail) = step_tail(out, true);
    m.insert("step.samples", samples as f64);
    m.insert("step.tail_s", tail.map_or(0.0, |(_, v)| v));
    m.insert("step.tail_pctile", tail.map_or(0.0, |(p, _)| p as f64));
    debug_assert_eq!(m.len(), PER_LAYER.len());
    m
}

/// Share of the median timed step each `_s` layer metric accounts for, for
/// the layers that ran (the separation the workloads are built for).
pub fn layer_shares(out: &RunOut, layers: &Metrics) -> Vec<(&'static str, f64)> {
    let step_s = median(&pooled(&blocks_of(out, true), |s| s.dur_s));
    const STEP_LAYERS: [&str; 14] = [
        "pcu.exchange_s",
        "pcu.barrier_wait_s",
        "core.migrate_s",
        "field.sync_s",
        "mesh.elem_loop_s",
        "parma.improve_s",
        "parma.touchup_s",
        "adapt.stamp_s",
        "adapt.adapt_s",
        "io.write_base_s",
        "io.write_delta_s",
        "io.read_s",
        "serve.open_s",
        "serve.restore_s",
    ];
    STEP_LAYERS
        .iter()
        .filter(|name| layers[*name] > 0.0)
        .map(|&name| (name, ratio(100.0 * layers[name], step_s)))
        .collect()
}
