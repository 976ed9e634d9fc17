//! Deterministic pseudo-random number generation.
//!
//! The simulator needs randomness that is *reproducible bit-for-bit* across
//! runs and platforms (workload generation, `IRG` tag draws). We use a
//! SplitMix64 generator: tiny, statistically solid for simulation purposes,
//! trivially cloneable and with a stable output sequence — properties the
//! `rand` crate's `StdRng` explicitly does not promise across versions.

use sas_isa::TagNibble;

/// A SplitMix64 pseudo-random generator.
///
/// ```
/// use sas_mte::rng::SplitMix64;
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
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
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

/// Deterministic random tag generator backing the `IRG` instruction.
///
/// Mirrors the architectural behaviour: a random 4-bit tag is drawn, skipping
/// any tag present in the *exclusion mask* (GCR_EL1.Exclude). Allocators
/// exclude tag `0` so random colours never collide with untagged memory.
///
/// ```
/// use sas_mte::IrgRng;
///
/// let mut rng = IrgRng::seeded(42);
/// let t = rng.next_tag(0b0000_0000_0000_0001); // exclude tag 0
/// assert_ne!(t.value(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct IrgRng {
    rng: SplitMix64,
    draws: u64,
}

impl IrgRng {
    /// Creates a generator from a 64-bit seed (deterministic across runs).
    pub fn seeded(seed: u64) -> IrgRng {
        IrgRng { rng: SplitMix64::new(seed), draws: 0 }
    }

    /// Draws a tag not present in `exclude_mask` (bit *i* set excludes tag
    /// *i*). If all sixteen tags are excluded, returns tag 0, matching the
    /// architecture's defined fallback.
    pub fn next_tag(&mut self, exclude_mask: u16) -> TagNibble {
        self.draws += 1;
        if exclude_mask == 0xFFFF {
            return TagNibble::ZERO;
        }
        loop {
            let v = self.rng.below(16) as u8;
            if exclude_mask & (1 << v) == 0 {
                return TagNibble::new(v);
            }
        }
    }

    /// Draws a tag excluding tag 0 and the listed tags.
    pub fn next_tag_excluding(&mut self, exclude: &[TagNibble]) -> TagNibble {
        let mut mask: u16 = 1; // always exclude 0
        for t in exclude {
            mask |= 1 << t.value();
        }
        self.next_tag(mask)
    }

    /// Serializes the generator cursor (state + draw count).
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        e.uv(self.rng.state());
        e.uv(self.draws);
    }

    /// Restores the generator cursor.
    ///
    /// # Errors
    ///
    /// Truncated input.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        self.rng.set_state(d.uv()?);
        self.draws = d.uv()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_exclusion_mask() {
        let mut rng = IrgRng::seeded(7);
        for _ in 0..256 {
            let t = rng.next_tag(0b0101_0101_0101_0101);
            assert_eq!(t.value() % 2, 1, "even tags are excluded");
        }
    }

    #[test]
    fn all_excluded_falls_back_to_zero() {
        let mut rng = IrgRng::seeded(7);
        assert_eq!(rng.next_tag(0xFFFF), TagNibble::ZERO);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = IrgRng::seeded(123);
        let mut b = IrgRng::seeded(123);
        for _ in 0..64 {
            assert_eq!(a.next_tag(1), b.next_tag(1));
        }
    }

    #[test]
    fn excluding_neighbors_avoids_their_tags() {
        let mut rng = IrgRng::seeded(9);
        let left = TagNibble::new(3);
        let right = TagNibble::new(7);
        for _ in 0..256 {
            let t = rng.next_tag_excluding(&[left, right]);
            assert_ne!(t, left);
            assert_ne!(t, right);
            assert_ne!(t, TagNibble::ZERO);
        }
    }

    #[test]
    fn eventually_draws_every_allowed_tag() {
        let mut rng = IrgRng::seeded(1);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[rng.next_tag(1).value() as usize] = true;
        }
        assert!(seen[1..].iter().all(|&s| s), "all 15 non-zero tags reachable");
        assert!(!seen[0]);
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
