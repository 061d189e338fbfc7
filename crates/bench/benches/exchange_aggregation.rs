//! A/B benchmark for node-aware message aggregation (DESIGN.md "Two-level
//! message routing"): dense all-to-all exchanges across a sweep of machine
//! shapes — the same 32 ranks laid out from one fat node (1×32) to many thin
//! nodes (8×4) — routed directly versus through node leaders.
//!
//! Besides the console medians, the bench prints, per configuration, the
//! off-node envelope counts split into logical (rank-to-rank, at the
//! exchange span) and physical relay traffic (super-messages, under the
//! nested relay span) — the Figs 5/6-style view of what aggregation buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pumi_pcu::phased::{Exchange, ExchangeOpts};
use pumi_pcu::{execute_on, MachineModel};

const PAYLOAD: usize = 1024;
const ROUNDS: usize = 4;
const SHAPES: [(usize, usize); 4] = [(1, 32), (2, 16), (4, 8), (8, 4)];

fn all_to_all(m: MachineModel, opts: ExchangeOpts) {
    execute_on(m, move |c| {
        for _ in 0..ROUNDS {
            let mut ex = Exchange::with_opts(c, opts);
            for dest in 0..c.nranks() {
                if dest != c.rank() {
                    ex.to(dest).put_bytes(&vec![1u8; PAYLOAD]);
                }
            }
            let _ = ex.finish();
        }
    });
}

/// One instrumented pass: world-reduced per-phase traffic rows.
fn traffic_rows(m: MachineModel, opts: ExchangeOpts) -> Vec<pumi_pcu::obs::WorldTraffic> {
    execute_on(m, move |c| {
        let _ = pumi_obs::span::take();
        let _ = pumi_obs::metrics::take_traffic();
        {
            let _g = pumi_obs::span!("agg_bench");
            let mut ex = Exchange::with_opts(c, opts);
            for dest in 0..c.nranks() {
                if dest != c.rank() {
                    ex.to(dest).put_bytes(&vec![1u8; PAYLOAD]);
                }
            }
            let _ = ex.finish();
        }
        pumi_pcu::obs::reduce_traffic(c)
    })
    .into_iter()
    .flatten()
    .next()
    .unwrap_or_default()
}

fn aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange_aggregation");
    group.sample_size(10);
    for &(nodes, cores) in &SHAPES {
        let m = MachineModel::new(nodes, cores);
        for (label, opts) in [
            ("direct", ExchangeOpts::direct()),
            ("two_level", ExchangeOpts::two_level()),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("{nodes}x{cores}")),
                &(m, opts),
                |b, &(m, opts)| b.iter(|| all_to_all(m, opts)),
            );
            let traffic = traffic_rows(m, opts);
            let off_node = |suffix: &str| {
                traffic
                    .iter()
                    .find(|r| {
                        r.phase.ends_with(suffix) && r.link == pumi_obs::metrics::Link::OffNode
                    })
                    .map(|r| (r.msgs, r.bytes))
                    .unwrap_or((0, 0))
            };
            let (logical_msgs, logical_bytes) = off_node("agg_bench/pcu.exchange");
            let (relay_msgs, relay_bytes) = off_node(pumi_obs::metrics::RELAY_SPAN);
            // Direct routing has no relay hop: its logical envelopes ARE the
            // wire envelopes.
            let (wire_msgs, wire_bytes) = if opts == ExchangeOpts::two_level() {
                (relay_msgs, relay_bytes)
            } else {
                (logical_msgs, logical_bytes)
            };
            println!(
                "{label}/{nodes}x{cores}: off-node logical {logical_msgs} msgs / {logical_bytes} B, \
                 wire {wire_msgs} msgs / {wire_bytes} B"
            );
        }
    }
    group.finish();
}

criterion_group!(benches, aggregation);
criterion_main!(benches);
