//! The measurement loop shared by every workload.
//!
//! A run is a sequence of *blocks*. Each block sets its workload up from
//! scratch (timed as one `setup_s` sample), runs warm-up steps, then a
//! fixed number of timed steps, with the correctness checks between steps
//! and outside every timed region. Blocks repeat until `--seconds` of wall
//! time are used, so the run length follows the flag while every count is
//! an exact per-block value that does not depend on how fast the box is.
//!
//! Closed loop, bulk-synchronous: a step starts when the previous one has
//! finished on every rank, and its time is measured from the moment the
//! first rank starts to the moment the slowest rank finishes.
//!
//! A block runs on its own thread under a deadline. The runtime's counted
//! barrier can lose a wake-up (see `README.md`, "Abandoned blocks"), which
//! parks a whole world for good; such a block is abandoned, counted in
//! `pcu.hung_blocks`, and run again, so one lost wake-up costs a run some
//! seconds rather than its result.

use crate::calls::{self, Comm, MachineModel, Traffic};
use crate::trace::{Phase, Recorder, Span, DRIVER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Named per-block numbers (exact counts and one-off measurements).
pub type Values = BTreeMap<&'static str, f64>;

/// One step as the whole world saw it.
#[derive(Debug, Clone, Copy)]
pub struct StepOut {
    /// Warm-up steps are recorded but excluded from step metrics.
    pub timed: bool,
    /// Sum over the step's timed segments of (slowest finish − first start).
    pub dur_s: f64,
    /// World traffic over the step.
    pub traffic: Traffic,
    /// Whether the step's operation and its check succeeded.
    pub ok: bool,
}

/// Everything one block produced.
#[derive(Debug, Default)]
pub struct BlockOut {
    /// Whether the block's recorder was on.
    pub traced: bool,
    /// Block start → every rank ready for the first warm-up step.
    pub setup_s: f64,
    /// Warm-up and timed steps in order.
    pub steps: Vec<StepOut>,
    /// Per-block values reported by the workload.
    pub values: Values,
    /// One span list per thread that recorded.
    pub tracks: Vec<Vec<Span>>,
}

/// What a workload implements: the operation of one step and its oracle.
pub trait Steps {
    /// Untimed preparation of step `i` (may communicate).
    fn prepare(&mut self, _cx: &mut Cx, _i: usize) {}
    /// The step: one or more [`Cx::timed`] segments. Returns `false` when
    /// the operation reported an error.
    fn step(&mut self, cx: &mut Cx, i: usize, timed: bool) -> bool;
    /// The untimed correctness check of step `i`.
    fn check(&mut self, cx: &mut Cx, i: usize, timed: bool) -> bool;
}

/// One timed segment on one rank.
struct Seg {
    start_ns: u64,
    end_ns: u64,
    /// World traffic read just before the opening barrier …
    before: Traffic,
    /// … and just after the closing one.
    after: Traffic,
}

struct RankStep {
    timed: bool,
    segs: Vec<Seg>,
    ok: bool,
}

/// A rank's view of its block: the communicator, the rank's recorder, and
/// the step log the harness merges when the world ends.
pub struct Cx<'a> {
    /// This rank's communicator.
    pub c: &'a Comm,
    /// This rank's recorder.
    pub rec: Recorder,
    /// Values reported by this rank (rank 0's are kept).
    pub values: Values,
    inject_failure: Option<usize>,
    setup_done_ns: Option<u64>,
    segs: Vec<Seg>,
    steps: Vec<RankStep>,
}

impl Cx<'_> {
    /// Mark the end of this rank's set-up. Set-up ends for the world when
    /// its slowest rank gets here; the first segment's barrier does the
    /// synchronising.
    pub fn setup_done(&mut self) {
        self.setup_done_ns = Some(self.rec.now_ns());
    }

    /// One timed segment of the current step, fenced by barriers so it
    /// starts and ends together on every rank. The wait in the closing
    /// barrier is the rank skew (`pcu.barrier_wait`).
    ///
    /// Traffic is read outside the fences, where the world is quiet: no
    /// rank sends between finishing its untimed work and the opening
    /// barrier, so the *largest* reading before it is the world's total at
    /// the start; no rank sends between the closing barrier and its own
    /// reading, so the *smallest* reading after it is the total at the end.
    /// The merge takes that maximum and minimum over ranks. (Two extra
    /// barriers would do the same, but back-to-back barriers are what the
    /// lost wake-up in `README.md` needs.)
    pub fn timed<T>(&mut self, f: impl FnOnce(&Recorder, &Comm) -> T) -> T {
        let before = calls::traffic(self.c);
        calls::barrier(self.c);
        let start_ns = self.rec.now_ns();
        let (out, end_ns) = self.rec.span("step", || {
            let out = f(&self.rec, self.c);
            let end_ns = self.rec.now_ns();
            self.rec.span("pcu.barrier_wait", || calls::barrier(self.c));
            (out, end_ns)
        });
        let after = calls::traffic(self.c);
        self.segs.push(Seg {
            start_ns,
            end_ns,
            before,
            after,
        });
        out
    }

    /// Run `warm` warm-up steps then `timed` timed steps of `w`.
    pub fn run(&mut self, warm: usize, timed: usize, w: &mut impl Steps) {
        for i in 0..warm + timed {
            let is_timed = i >= warm;
            let phase = if is_timed {
                Phase::Timed
            } else {
                Phase::Warmup
            };
            self.rec.at(Phase::Check, i as u32);
            w.prepare(self, i);
            self.rec.at(phase, i as u32);
            let mut ok = w.step(self, i, is_timed);
            self.rec.at(Phase::Check, i as u32);
            ok &= w.check(self, i, is_timed);
            if is_timed && self.inject_failure == Some(i - warm) {
                ok = false;
            }
            self.steps.push(RankStep {
                timed: is_timed,
                segs: std::mem::take(&mut self.segs),
                ok,
            });
        }
    }
}

struct RankOut {
    entry_ns: u64,
    exit_ns: u64,
    setup_done_ns: Option<u64>,
    steps: Vec<RankStep>,
    values: Values,
    spans: Vec<Span>,
}

/// The driver-side handle of one block.
pub struct Block {
    /// The run this block belongs to.
    pub run: RunCfg,
    /// Block index within the run.
    pub index: usize,
    /// Driver-thread recorder.
    pub rec: Recorder,
    /// Scratch directory for this block's checkpoints (removed on drop).
    pub tmp: TempDir,
    start_ns: u64,
    out: BlockOut,
}

impl Block {
    fn new(run: RunCfg, index: usize, traced: bool, epoch: Instant, tmp: TempDir) -> Block {
        let rec = Recorder::new(traced, epoch, DRIVER);
        let start_ns = rec.now_ns();
        Block {
            run,
            index,
            rec,
            tmp,
            start_ns,
            out: BlockOut {
                traced,
                ..BlockOut::default()
            },
        }
    }

    /// Mark the end of set-up on the driver (for workloads whose steps run
    /// on the driver thread rather than inside one long-lived world).
    pub fn setup_done(&mut self) {
        self.out.setup_s = (self.rec.now_ns() - self.start_ns) as f64 * 1e-9;
    }

    /// Report a per-block value from the driver.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.out.values.insert(name, v);
    }

    /// Record a step that ran on the driver thread.
    pub fn push_step(&mut self, step: StepOut) {
        self.out.steps.push(step);
    }

    /// Keep a helper thread's spans.
    pub fn push_track(&mut self, spans: Vec<Span>) {
        if !spans.is_empty() {
            self.out.tracks.push(spans);
        }
    }

    /// Spawn a world of `machine.nranks()` ranks, run `f` on every rank and
    /// merge what the ranks logged into this block.
    pub fn world(
        &mut self,
        machine: MachineModel,
        stack: Option<usize>,
        f: impl Fn(&mut Cx) + Send + Sync,
    ) {
        let traced = self.rec.is_on();
        let epoch = self.rec.epoch();
        let inject_failure = self.run.inject_failure;
        let call_ns = self.rec.now_ns();
        let outs: Vec<RankOut> = calls::world(machine, stack, self.run.workers, |c| {
            let rec = Recorder::new(traced, epoch, c.rank() as u32);
            let entry_ns = rec.now_ns();
            let mut cx = Cx {
                c,
                rec,
                values: Values::new(),
                inject_failure,
                setup_done_ns: None,
                segs: Vec::new(),
                steps: Vec::new(),
            };
            f(&mut cx);
            RankOut {
                entry_ns,
                exit_ns: cx.rec.now_ns(),
                setup_done_ns: cx.setup_done_ns,
                steps: cx.steps,
                values: cx.values,
                spans: cx.rec.into_spans(),
            }
        });
        let ret_ns = self.rec.now_ns();
        let last_entry = outs.iter().map(|o| o.entry_ns).max().unwrap_or(call_ns);
        let last_exit = outs.iter().map(|o| o.exit_ns).max().unwrap_or(ret_ns);
        self.rec.push("pcu.spawn", call_ns, last_entry);
        self.rec.push("pcu.spawn", last_exit, ret_ns);
        if let Some(done) = outs.iter().filter_map(|o| o.setup_done_ns).max() {
            self.out.setup_s = (done - self.start_ns) as f64 * 1e-9;
        }
        let nsteps = outs[0].steps.len();
        for k in 0..nsteps {
            let nsegs = outs[0].steps[k].segs.len();
            let mut dur_ns = 0u64;
            let mut traffic = Traffic::default();
            for s in 0..nsegs {
                let segs = || outs.iter().map(|o| &o.steps[k].segs[s]);
                let first = segs().map(|g| g.start_ns).min().unwrap_or(0);
                let last = segs().map(|g| g.end_ns).max().unwrap_or(0);
                dur_ns += last.saturating_sub(first);
                let before = segs().map(|g| g.before).reduce(Traffic::max);
                let after = segs().map(|g| g.after).reduce(Traffic::min);
                if let (Some(before), Some(after)) = (before, after) {
                    traffic = traffic.plus(&after.since(&before));
                }
            }
            self.out.steps.push(StepOut {
                timed: outs[0].steps[k].timed,
                dur_s: dur_ns as f64 * 1e-9,
                traffic,
                ok: outs.iter().all(|o| o.steps[k].ok),
            });
        }
        let mut outs = outs;
        self.out.values.append(&mut outs[0].values);
        for o in outs {
            self.push_track(o.spans);
        }
    }

    fn finish(self) -> BlockOut {
        let Block { rec, mut out, .. } = self;
        let spans = rec.into_spans();
        if !spans.is_empty() {
            out.tracks.push(spans);
        }
        out
    }
}

/// A scratch directory under `benchmark/out/tmp`, removed when dropped —
/// also when a failed run unwinds through it.
pub struct TempDir(PathBuf);

impl TempDir {
    fn new(workload: &str) -> TempDir {
        // Unique within the process as well: the self-tests run several
        // blocks of one workload at once.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        TempDir(out_dir().join("tmp").join(format!(
            "{workload}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }

    /// The directory path (created on first use by the writers).
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out`, next to the package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Problem sizes and step counts of one workload block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The published sizes.
    Full,
    /// Seconds-scale sizes for the harness self-tests.
    Tiny,
}

/// One invocation: a workload, a seed and a time budget.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Which workload to run.
    pub workload: crate::metrics::Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall-time budget; blocks repeat until it is used.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Fail the check of this timed step of every block (self-test hook).
    pub inject_failure: Option<usize>,
    /// Fewest blocks to run regardless of the budget.
    pub min_blocks: usize,
    /// Cap on runnable rank threads (`WorldOpts::workers`).
    pub workers: usize,
    /// A block that has not finished after this long is abandoned.
    pub block_deadline: Duration,
}

impl RunCfg {
    /// The configuration the command line builds: full scale, at least
    /// three set-ups per run, rank threads capped at the core count.
    pub fn new(workload: crate::metrics::Workload, seed: u64, seconds: f64, trace: bool) -> RunCfg {
        RunCfg {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            inject_failure: None,
            min_blocks: if trace { 4 } else { 3 },
            workers: nproc(),
            block_deadline: Duration::from_secs(30),
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// All blocks of a run plus the failure tally.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Completed blocks.
    pub blocks: Vec<BlockOut>,
    /// Timed steps attempted (including those of poisoned blocks).
    pub attempted: u64,
    /// Timed steps that failed.
    pub failed: u64,
    /// Blocks abandoned because their world stopped making progress.
    pub hung_blocks: u64,
    /// `VmHWM` of this process when its first block ended, MiB: the peak of
    /// one block from a fresh process, whatever the number of blocks.
    pub peak_rss_mb: f64,
}

/// Blocks a run may abandon before it gives up and reports failure.
const MAX_HUNG_BLOCKS: u64 = 3;

/// Run blocks of `cfg.workload` until the time budget is used. In a traced
/// run odd blocks record spans and even blocks do not, so the same run
/// yields the tracing overhead.
pub fn run(cfg: &RunCfg) -> RunOut {
    let epoch = Instant::now();
    let mut out = RunOut::default();
    let planned = crate::workloads::timed_steps(cfg) as u64;
    let mut index = 0;
    while index < cfg.min_blocks || epoch.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && index % 2 == 1;
        let tmp = TempDir::new(cfg.workload.name());
        let tmp_path = tmp.path().to_path_buf();
        let (tx, rx) = mpsc::channel();
        let run = cfg.clone();
        // Detached on purpose: the thread of a block that hangs can never
        // be joined; every other block's thread ends with its `send`.
        std::thread::spawn(move || {
            // A panic on any rank poisons its world and resurfaces here;
            // the block's scratch directory is removed on the way out.
            let block = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut block = Block::new(run, index, traced, epoch, tmp);
                crate::workloads::run_block(&mut block);
                block.finish()
            }));
            let _ = tx.send(block);
        });
        match rx.recv_timeout(cfg.block_deadline) {
            Ok(Ok(b)) => {
                let failed = b.steps.iter().filter(|s| s.timed && !s.ok).count() as u64;
                let ran = b.steps.iter().filter(|s| s.timed).count() as u64;
                out.attempted += planned;
                out.failed += failed + planned.saturating_sub(ran);
                if out.blocks.is_empty() {
                    out.peak_rss_mb = peak_rss_mb();
                }
                out.blocks.push(b);
                index += 1;
            }
            // Poisoned world: every step of the block counts as failed.
            Ok(Err(_)) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                out.attempted += planned;
                out.failed += planned;
                index += 1;
            }
            // No progress: leave the parked threads behind, clean up after
            // them, and run the block again.
            Err(mpsc::RecvTimeoutError::Timeout) => {
                out.hung_blocks += 1;
                let _ = std::fs::remove_dir_all(&tmp_path);
                eprintln!(
                    "{}: block {index} made no progress for {:?} and was abandoned",
                    cfg.workload.name(),
                    cfg.block_deadline
                );
                if out.hung_blocks >= MAX_HUNG_BLOCKS {
                    out.attempted += planned;
                    out.failed += planned;
                    break;
                }
            }
        }
    }
    out
}

/// `VmHWM` from `/proc/self/status`, in MiB (0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
