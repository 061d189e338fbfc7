//! Property-style oracle of the phased exchange.
//!
//! For randomized traffic patterns over a sweep of machine shapes, every
//! rank's `Received` must be the pattern transposed — one `(source,
//! payload)` per rank that sent to it, sorted by source, with
//! `total_bytes` the sum of the frames' lengths — and the per-phase
//! observability rows at the exchange span path must carry exactly the
//! messages and bytes the pattern implies on each link class. Chaos
//! scheduling may permute delivery but must deliver the same multiset per
//! rank per phase, and meter the same rows.

use pumi_obs::metrics::Link;
use pumi_pcu::machine::MachineModel;
use pumi_pcu::obs::WorldTraffic;
use pumi_pcu::phased::Exchange;
use pumi_pcu::{execute_opts, MsgReader, SchedMode, WorldOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

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
/// `(link, messages, bytes)` per link class that carried traffic.
type Rows = Vec<(Link, u64, u64)>;

/// Bytes on the wire of one packed payload: a `u32` length prefix, then
/// the payload.
fn frame_len(payload: &[u8]) -> u64 {
    4 + payload.len() as u64
}

/// What every rank must receive: the pattern transposed, sorted by source.
fn expected_outcome(pattern: &Pattern, nranks: usize) -> Outcome {
    (0..nranks)
        .map(|me| {
            pattern
                .iter()
                .map(|phase| {
                    // Sources ascend because `phase` is indexed by source.
                    let msgs: Vec<(usize, Vec<u8>)> = phase
                        .iter()
                        .enumerate()
                        .flat_map(|(from, sends)| {
                            sends
                                .iter()
                                .filter(|(dest, _)| *dest == me)
                                .map(move |(_, payload)| (from, payload.clone()))
                        })
                        .collect();
                    let total = msgs.iter().map(|(_, p)| frame_len(p)).sum();
                    (total, msgs)
                })
                .collect()
        })
        .collect()
}

/// What the exchange path must meter over all phases, per link class,
/// sorted by link.
fn expected_rows(m: MachineModel, pattern: &Pattern) -> Rows {
    let mut rows: BTreeMap<Link, (u64, u64)> = BTreeMap::new();
    for phase in pattern {
        for (from, sends) in phase.iter().enumerate() {
            for (dest, payload) in sends {
                let row = rows.entry(m.link(from, *dest).to_obs()).or_default();
                row.0 += 1;
                row.1 += frame_len(payload);
            }
        }
    }
    rows.into_iter()
        .map(|(link, (msgs, bytes))| (link, msgs, bytes))
        .collect()
}

fn run(m: MachineModel, pattern: &Pattern, sched: SchedMode) -> (Outcome, Rows) {
    let mut results = execute_opts(m, WorldOpts::default().sched(sched), |c| {
        let _ = pumi_obs::span::take();
        let _ = pumi_obs::metrics::take_traffic();
        let phases: Vec<PhaseResult> = {
            let _g = pumi_obs::span!("prop");
            pattern
                .iter()
                .map(|phase| {
                    let mut ex = Exchange::new(c);
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
    let obs: Vec<WorldTraffic> = results
        .iter_mut()
        .filter_map(|(_, o)| o.take())
        .next()
        .expect("rank 0 reduces traffic");
    // Phase-level rows only: traffic recorded at the exchange span itself.
    // Nested spans (the termination barrier) are implementation detail.
    let mut rows: Rows = obs
        .into_iter()
        .filter(|r| r.phase.ends_with("prop/pcu.exchange"))
        .map(|r| (r.link, r.msgs, r.bytes))
        .collect();
    rows.sort();
    (results.into_iter().map(|(p, _)| p).collect(), rows)
}

/// Sort each rank's deliveries of each phase by `(source, payload)`: the
/// multiset a chaos permutation must preserve.
fn as_multisets(mut outcome: Outcome) -> Outcome {
    for phases in &mut outcome {
        for (_, msgs) in phases.iter_mut() {
            msgs.sort();
        }
    }
    outcome
}

/// Compare per rank and phase, so a failure names the first cell that
/// differs instead of printing every rank's payloads.
fn assert_outcome(got: &Outcome, want: &Outcome, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: ranks");
    for (rank, (got, want)) in got.iter().zip(want).enumerate() {
        for (phase, (got, want)) in got.iter().zip(want).enumerate() {
            assert_eq!(got, want, "{what}: rank {rank}, phase {phase}");
        }
    }
}

#[test]
fn exchange_delivers_the_transposed_pattern_and_meters_it_per_link() {
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
            let shape = format!("machine {}x{}, seed {seed}", m.nodes, m.cores_per_node);
            let want = expected_outcome(&pattern, m.nranks());
            let want_rows = expected_rows(m, &pattern);

            let (got, rows) = run(m, &pattern, SchedMode::Deterministic);
            assert_outcome(&got, &want, &format!("received contents: {shape}"));
            assert_eq!(rows, want_rows, "phase-level obs rows: {shape}");

            let want = as_multisets(want);
            for chaos in [1u64, 7] {
                let (got, rows) = run(m, &pattern, SchedMode::Chaos(chaos));
                let what = format!("received multisets: {shape}, chaos {chaos}");
                assert_outcome(&as_multisets(got), &want, &what);
                assert_eq!(
                    rows, want_rows,
                    "phase-level obs rows: {shape}, chaos {chaos}"
                );
            }
        }
    }
}
