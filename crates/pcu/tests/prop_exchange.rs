//! Property-style equivalence of exchange routing strategies.
//!
//! For randomized traffic patterns over a sweep of machine shapes, direct
//! and two-level routing must be observationally identical: every rank sees
//! byte-identical `Received` contents (same sources, same payloads, same
//! totals) across multiple phases, and the per-phase observability rows at
//! the exchange span path agree exactly (the relay's physical envelopes live
//! under a nested span and never leak into phase-level accounting).

use pumi_pcu::machine::MachineModel;
use pumi_pcu::obs::WorldTraffic;
use pumi_pcu::phased::{Exchange, RouteMode};
use pumi_pcu::{execute_opts, MsgReader, WorldOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `pattern[phase][rank]` = messages that rank sends, as `(dest, payload)`.
type Pattern = Vec<Vec<Vec<(usize, Vec<u8>)>>>;

fn gen_pattern(seed: u64, phases: usize, nranks: usize) -> Pattern {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..phases)
        .map(|_| {
            (0..nranks)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        return Vec::new(); // silent rank this phase
                    }
                    let mut sends = Vec::new();
                    for dest in 0..nranks {
                        // Sparse fan-out with self-sends and a size spread
                        // from empty to a few hundred bytes.
                        if rng.gen_bool(0.4) {
                            let len: usize = rng.gen_range(0..300);
                            let payload: Vec<u8> =
                                (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
                            sends.push((dest, payload));
                        }
                    }
                    sends
                })
                .collect()
        })
        .collect()
}

/// One phase on one rank: `(total_bytes, [(source, payload)])`.
type PhaseResult = (u64, Vec<(usize, Vec<u8>)>);
/// Per rank, per phase.
type Outcome = Vec<Vec<PhaseResult>>;

fn run(m: MachineModel, pattern: &Pattern, route: RouteMode) -> (Outcome, Vec<WorldTraffic>) {
    let mut results = execute_opts(m, WorldOpts::default(), |c| {
        let _ = pumi_obs::span::take();
        let _ = pumi_obs::metrics::take_traffic();
        let phases: Vec<PhaseResult> = {
            let _g = pumi_obs::span!("prop");
            pattern
                .iter()
                .map(|phase| {
                    let mut ex = Exchange::with_route(c, route);
                    for (dest, payload) in &phase[c.rank()] {
                        ex.to(*dest).put_bytes(payload);
                    }
                    let got = ex.finish();
                    let total = got.total_bytes();
                    let msgs = got
                        .into_iter()
                        .map(|(from, mut r): (usize, MsgReader)| {
                            let body = r.get_bytes();
                            assert!(r.is_done(), "trailing bytes from {from}");
                            (from, body)
                        })
                        .collect();
                    (total, msgs)
                })
                .collect()
        };
        let obs = pumi_pcu::obs::reduce_traffic(c);
        (phases, obs)
    });
    let obs = results
        .iter_mut()
        .filter_map(|(_, o)| o.take())
        .next()
        .expect("rank 0 reduces traffic");
    // Phase-level rows only: traffic recorded at the exchange span itself.
    // Nested spans (barriers, relay hops) are implementation detail.
    let phase_rows = obs
        .into_iter()
        .filter(|r| r.phase.ends_with("prop/pcu.exchange"))
        .collect();
    (results.into_iter().map(|(p, _)| p).collect(), phase_rows)
}

#[test]
fn routing_strategies_are_observationally_identical() {
    let shapes = [
        MachineModel::new(1, 4),
        MachineModel::new(2, 3),
        MachineModel::new(4, 2),
        MachineModel::new(2, 8),
        MachineModel::new(6, 1),
        MachineModel::new(1, 1),
    ];
    for (i, &m) in shapes.iter().enumerate() {
        for seed in 0..3u64 {
            let pattern = gen_pattern(seed * 31 + i as u64, 4, m.nranks());
            let (direct, direct_obs) = run(m, &pattern, RouteMode::Direct);
            let (agg, agg_obs) = run(m, &pattern, RouteMode::TwoLevel);
            assert_eq!(
                direct, agg,
                "received contents diverged: machine {}x{}, seed {seed}",
                m.nodes, m.cores_per_node
            );
            assert_eq!(
                direct_obs, agg_obs,
                "phase-level obs rows diverged: machine {}x{}, seed {seed}",
                m.nodes, m.cores_per_node
            );
        }
    }
}

/// No environment knob selects the routing: the default is direct whatever
/// this test process inherited, and two-level is an explicit per-exchange
/// choice ([`Exchange::with_route`]).
#[test]
fn route_mode_env_default_is_direct() {
    assert_eq!(RouteMode::default(), RouteMode::Direct);
}
