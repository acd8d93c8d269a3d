//! Seeded scheduling adversary for determinism stress tests.
//!
//! The byte-identity contract says the orchestrator's output is
//! independent of which worker crawls which site and of the order in
//! which results arrive. The way to *test* that is to make the timing
//! hostile on purpose: a [`ChaosSchedule`] derives, from a seed, how many
//! scheduler yields to inject before each claim and each hand-in, so a
//! single-threaded CI box still explores out-of-order completions and
//! window-full stalls — reproducibly.

/// The same split-mix style finalizer the fault subsystem uses: cheap,
/// stateless, and fully determined by `(seed, stream)`.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pure-hash source of adversarial scheduling decisions.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSchedule {
    seed: u64,
}

impl ChaosSchedule {
    /// Creates a schedule; equal seeds give bit-equal decision streams.
    pub fn new(seed: u64) -> Self {
        ChaosSchedule { seed }
    }

    fn draw(&self, worker: usize, step: u64, salt: u64) -> u64 {
        mix(self.seed ^ salt, ((worker as u64) << 40) ^ step)
    }

    /// Number of `thread::yield_now` calls to inject at worker `worker`'s
    /// `step`-th yield point (0..=3), to shake up which thread wins each
    /// race.
    pub fn yields(&self, worker: usize, step: u64) -> u32 {
        (self.draw(worker, step, 0x71E1_D000) % 4) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = ChaosSchedule::new(42);
        let b = ChaosSchedule::new(42);
        for w in 0..4 {
            for step in 0..100 {
                assert_eq!(a.yields(w, step), b.yields(w, step));
            }
        }
    }

    #[test]
    fn different_seeds_disagree_somewhere() {
        let a = ChaosSchedule::new(1);
        let b = ChaosSchedule::new(2);
        let diverged = (0..200u64).any(|s| a.yields(0, s) != b.yields(0, s));
        assert!(diverged);
    }
}
