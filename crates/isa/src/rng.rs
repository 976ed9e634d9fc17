//! The one pseudo-random generator of the simulator.
//!
//! Workload generation and `IRG` tag draws need randomness that is
//! reproducible bit for bit across runs and platforms. SplitMix64 is tiny,
//! statistically solid for simulation, and counter-based: its state after
//! `n` draws is the seed plus `n` times a constant, so any point of the
//! stream can be reached in one step ([`SplitMix64::advance`]). A
//! generated data segment relies on that to compute each page on its own.

/// The increment SplitMix64 adds to its state on every draw.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 pseudo-random generator.
///
/// ```
/// use sas_isa::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Skips `n` draws: the same state as `n` calls to
    /// [`SplitMix64::next_u64`], in one multiply-add.
    ///
    /// ```
    /// use sas_isa::SplitMix64;
    /// let (mut a, mut b) = (SplitMix64::new(3), SplitMix64::new(3));
    /// for _ in 0..1000 {
    ///     a.next_u64();
    /// }
    /// b.advance(1000);
    /// assert_eq!(a, b);
    /// ```
    pub fn advance(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform value in `[0, bound)`; returns 0 when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift rejection-free mapping (Lemire); bias is negligible
        // for simulation bounds (< 2^32).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// The raw generator state (snapshot support).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Overwrites the generator state (snapshot restore).
    pub fn set_state(&mut self, state: u64) {
        self.state = state;
    }
}

/// SplitMix64's output function of a state.
fn mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_agrees_with_the_stream() {
        for n in [0u64, 1, 2, 7, 4096, 1 << 21] {
            let mut stepped = SplitMix64::new(0xFEED);
            for _ in 0..n {
                stepped.next_u64();
            }
            let mut jumped = SplitMix64::new(0xFEED);
            jumped.advance(n);
            assert_eq!(jumped, stepped, "{n}");
            assert_eq!(jumped.next_u64(), stepped.next_u64(), "{n}");
        }
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn range_bounds_hold() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..1000 {
            let v = rng.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SplitMix64::new(0).range(3, 3);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut rng = SplitMix64::new(6);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }
}
