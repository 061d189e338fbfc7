//! PCU runtime weak scaling: cost of one phased-exchange round as the
//! simulated world widens, with the bytes each rank injects held constant.
//!
//! The paper's runtime had to stay cheap out to 512K cores; this harness
//! checks the simulated analogue — that a 1024-rank world is usable on a
//! laptop. Two patterns per width:
//!
//! - **ring**: each rank sends the full per-rank payload one hop forward;
//!   message count grows linearly with the world.
//! - **all-to-all**: each rank splits the same payload across every peer;
//!   message count grows quadratically, so this leans hardest on per-link
//!   frame batching and the per-rank mailboxes.
//!
//! Usage: `pcu_weak_scaling [--bytes-per-rank B] [--reps R] [--max-ranks N]
//! [--rounds K]`.
//!
//! Not a paper table or figure: this binary stays only because it is the
//! sole way to run the 512- and 1024-rank all-to-all that ROADMAP item 3
//! starts from (`benchmark`'s `wide_exchange` stops at 256 ranks). The
//! `benchmark` PR that adds `--scale large` deletes it.

use pumi_bench::report::{f, print_table, Table};
use pumi_pcu::phased::Exchange;
use pumi_pcu::{execute_opts, MachineModel, WorldOpts};
use pumi_util::stats::Timer;

struct Run {
    bench: String,
    ranks: usize,
    median_ns: u64,
    samples: u64,
}

fn median_ns(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn parse_args() -> (usize, usize, usize, usize) {
    let (mut bytes, mut reps, mut max_ranks, mut rounds) = (4096usize, 5usize, 1024usize, 4usize);
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < args.len() {
        let v = &args[i + 1];
        match args[i].as_str() {
            "--bytes-per-rank" => bytes = v.parse().expect("--bytes-per-rank"),
            "--reps" => reps = v.parse().expect("--reps"),
            "--max-ranks" => max_ranks = v.parse().expect("--max-ranks"),
            "--rounds" => rounds = v.parse().expect("--rounds"),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }
    (bytes, reps, max_ranks, rounds)
}

/// Wide worlds need thousands of rank threads: keep their stacks small so
/// 1024 ranks cost ~256 MiB of address space, not 8 GiB.
fn opts() -> WorldOpts {
    WorldOpts::default().stack_size(256 * 1024)
}

/// Median over reps of the slowest rank per rep, in ns.
fn fold(out: Vec<Vec<u64>>, reps: usize) -> u64 {
    let rep_max: Vec<u64> = (0..reps)
        .map(|i| out.iter().map(|v| v[i]).max().unwrap())
        .collect();
    median_ns(rep_max)
}

fn ring(nranks: usize, bytes: usize, reps: usize, rounds: usize) -> u64 {
    let out = execute_opts(MachineModel::flat(nranks), opts(), move |c| {
        let data = vec![0u8; bytes];
        let next = (c.rank() + 1) % c.nranks();
        let mut rep_ns = Vec::with_capacity(reps);
        c.barrier();
        for _ in 0..reps {
            let t = Timer::start();
            for _ in 0..rounds {
                let mut ex = Exchange::new(c);
                ex.to(next).put_bytes(&data);
                let _ = ex.finish();
            }
            rep_ns.push((t.seconds() * 1e9) as u64);
        }
        rep_ns
    });
    fold(out, reps)
}

fn all_to_all(nranks: usize, bytes: usize, reps: usize, rounds: usize) -> u64 {
    let out = execute_opts(MachineModel::flat(nranks), opts(), move |c| {
        // Fixed injection per rank: the per-peer slice shrinks as the world
        // widens, so total bytes scale linearly while messages scale
        // quadratically.
        let per_peer = (bytes / (nranks - 1)).max(1);
        let data = vec![0u8; per_peer];
        let mut rep_ns = Vec::with_capacity(reps);
        c.barrier();
        for _ in 0..reps {
            let t = Timer::start();
            for _ in 0..rounds {
                let mut ex = Exchange::new(c);
                for peer in 0..c.nranks() {
                    if peer != c.rank() {
                        ex.to(peer).put_bytes(&data);
                    }
                }
                let rx = ex.finish();
                assert_eq!(rx.iter().count(), c.nranks() - 1);
            }
            rep_ns.push((t.seconds() * 1e9) as u64);
        }
        rep_ns
    });
    fold(out, reps)
}

fn main() {
    let (bytes, reps, max_ranks, rounds) = parse_args();
    eprintln!(
        "pcu_weak_scaling: {bytes} B/rank, {rounds} rounds/rep, {reps} reps, up to {max_ranks} ranks"
    );

    let mut runs: Vec<Run> = Vec::new();
    let mut n = 32usize;
    while n <= max_ranks {
        let ring_ns = ring(n, bytes, reps, rounds);
        runs.push(Run {
            bench: format!("pcu_weak_scaling/ring/{n}"),
            ranks: n,
            median_ns: ring_ns,
            samples: reps as u64,
        });
        let a2a_ns = all_to_all(n, bytes, reps, rounds);
        runs.push(Run {
            bench: format!("pcu_weak_scaling/a2a/{n}"),
            ranks: n,
            median_ns: a2a_ns,
            samples: reps as u64,
        });
        eprintln!(
            "  {n:>5} ranks: ring {:>10.3} ms   a2a {:>10.3} ms",
            ring_ns as f64 * 1e-6,
            a2a_ns as f64 * 1e-6
        );
        n *= 2;
    }

    let mut table = Table::new(
        &format!("PCU weak scaling: {bytes} B injected per rank, {rounds} rounds"),
        &["bench", "ranks", "median (ms)", "per-rank (us)", "samples"],
    );
    for r in &runs {
        table.row(vec![
            r.bench.clone(),
            r.ranks.to_string(),
            f(r.median_ns as f64 * 1e-6, 3),
            f(r.median_ns as f64 * 1e-3 / r.ranks as f64, 2),
            r.samples.to_string(),
        ]);
    }
    print_table(&table);

    println!();
    println!(
        "check: ring cost per rank stays near-flat as the world widens; a2a \
         grows with its quadratic message count but must stay laptop-usable \
         at 1024 ranks"
    );
}
