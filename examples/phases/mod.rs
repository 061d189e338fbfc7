//! The wall-time line the phase printers end with.

use pumi_pcu::obs::WorldSpan;
use std::time::{Duration, Instant};

/// When one rank's loop started and ended, read from an epoch shared by the
/// world's ranks.
pub type Window = (Duration, Duration);

/// Time `run` on the calling rank against `epoch`.
pub fn timed(epoch: Instant, run: impl FnOnce()) -> Window {
    let start = epoch.elapsed();
    run();
    (start, epoch.elapsed())
}

/// Print the wall time per one of `units` (`unit` names it), from the
/// first rank's start to the last rank's end, and the idle share of the
/// cores the world can use, `1 − Σ self compute / (cores × wall)`. A
/// rank's self compute is its loop's time outside `pcu.*` spans: its own
/// work, without its messages, barriers and permit waits. The cores are
/// the worker permits, or the ranks when the world is uncapped. With more
/// of them than the host has cores, rank threads share cores and their
/// self compute holds the OS's time slicing, so the share is not printed.
pub fn print_wall(windows: &[Window], spans: &[WorldSpan], units: u64, unit: &str, workers: usize) {
    let first = windows.iter().map(|w| w.0).min().unwrap_or_default();
    let last = windows.iter().map(|w| w.1).max().unwrap_or_default();
    let wall = (last - first).as_secs_f64();
    let ranks_time: f64 = windows.iter().map(|w| (w.1 - w.0).as_secs_f64()).sum();
    let pcu = |path: &str| path.rsplit('/').next().unwrap_or(path).starts_with("pcu.");
    let waits: f64 = spans
        .iter()
        .filter(|s| pcu(&s.path))
        .map(|s| s.self_seconds)
        .sum();
    let ranks = windows.len();
    let permits = if workers == 0 || workers >= ranks {
        ranks
    } else {
        workers
    };
    let host = std::thread::available_parallelism().map_or(permits, |n| n.get());
    let per_unit = wall * 1e3 / units as f64;
    if permits > host {
        println!("wall: {per_unit:.3} ms per {unit}; {permits} rank threads on {host} core(s)");
        return;
    }
    let idle = 1.0 - (ranks_time - waits) / (permits as f64 * wall);
    println!(
        "wall: {per_unit:.3} ms per {unit}, {:.1} % of {permits} core(s) idle",
        100.0 * idle
    );
}
