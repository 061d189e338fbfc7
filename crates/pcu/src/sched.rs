//! The seeded chaos scheduler.
//!
//! The simulated transport delivers messages in one fixed order per run, so
//! latent order-dependence bugs in the algorithms above (migration, ghosting,
//! field sync, ParMA) stay hidden. [`SchedMode::Chaos`] makes delivery order
//! adversarial *and reproducible*: each rank's send order and its merged
//! arrival order are shuffled by two seeded generators, and random yields
//! perturb thread interleaving. Two runs with the
//! same seed perturb identically; two runs with different seeds must still
//! produce identical meshes, field bytes, and per-phase traffic — the
//! determinism suite and `pumi-check` key on this.
//!
//! Selection: `PUMI_PCU_SCHED=chaos:<seed>` process-wide (read once), or
//! per-world via [`crate::comm::WorldOpts::sched`].

use std::sync::OnceLock;

/// How the exchange layer orders frame delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Frames are delivered sorted by source (bitwise-reproducible runs).
    #[default]
    Deterministic,
    /// Frame order is shuffled by a seeded generator and random yields are
    /// injected. Reproducible per seed; adversarial across seeds.
    Chaos(u64),
}

impl SchedMode {
    /// The process-wide default, read once from the `PUMI_PCU_SCHED`
    /// environment variable. Grammar: `chaos:<u64 seed>` selects chaos
    /// scheduling; anything else, or unset, selects deterministic order.
    pub fn from_env() -> SchedMode {
        static MODE: OnceLock<SchedMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("PUMI_PCU_SCHED") {
            Ok(v) => match v.strip_prefix("chaos:").map(str::parse::<u64>) {
                Some(Ok(seed)) => SchedMode::Chaos(seed),
                _ => SchedMode::Deterministic,
            },
            Err(_) => SchedMode::Deterministic,
        })
    }
}

/// Seeded splitmix64 generator — small, fast, and good enough for shuffles;
/// implemented here so the runtime takes no RNG dependency. Public so
/// higher layers (e.g. the part-addressed exchange) can derive their own
/// reproducible permutations from the same (seed, phase, rank) triple.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A generator for one exchange phase: mixes the world seed, the phase's
    /// exchange sequence number, and the rank, so every (seed, phase,
    /// rank) triple shuffles independently but reproducibly.
    pub fn for_phase(seed: u64, phase: u32, rank: usize) -> ChaosRng {
        let mut rng = ChaosRng(
            seed ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (rank as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        rng.next_u64(); // discard the correlated first output
        rng
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// Yield the thread with probability 1/4 — perturbs rank interleaving
    /// without slowing a phase down measurably.
    pub fn maybe_yield(&mut self) {
        if self.next_u64() & 3 == 0 {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_shuffle() {
        let shuffle_with = |seed, phase, rank| {
            let mut v: Vec<u32> = (0..32).collect();
            ChaosRng::for_phase(seed, phase, rank).shuffle(&mut v);
            v
        };
        assert_eq!(shuffle_with(9, 4, 2), shuffle_with(9, 4, 2));
        assert_ne!(shuffle_with(9, 4, 2), shuffle_with(10, 4, 2));
        assert_ne!(shuffle_with(9, 4, 2), shuffle_with(9, 5, 2));
        assert_ne!(shuffle_with(9, 4, 2), shuffle_with(9, 4, 3));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        ChaosRng::for_phase(1, 0, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn mode_queries() {
        assert_ne!(SchedMode::Chaos(7), SchedMode::Deterministic);
        assert_eq!(SchedMode::default(), SchedMode::Deterministic);
    }
}
