//! Workload characteristic profiles.

/// Behavioural fingerprint of one benchmark, per basic block.
///
/// All `*_per_block` values are average occurrence counts per generated
/// block; fractions are probabilities in `[0,1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Benchmark name as printed on the figure axis.
    pub name: &'static str,
    /// Data footprint in bytes (drives cache miss rate).
    pub footprint: u64,
    /// Plain ALU operations per block (ILP filler).
    pub alu_per_block: u32,
    /// Loads per block.
    pub loads_per_block: u32,
    /// Stores per block.
    pub stores_per_block: u32,
    /// Probability that a load is a pointer-chase step (dependent-load
    /// chain) rather than strided/random-indexed.
    pub chase_frac: f64,
    /// Probability that a load indexes with the previously *loaded* value
    /// (`A[B[i]]` indirection) — the dependent pattern STT must delay.
    pub indirect_frac: f64,
    /// Probability that a load uses a random (hash-like) index rather than
    /// a sequential stride.
    pub random_frac: f64,
    /// Conditional branches per block.
    pub branches_per_block: u32,
    /// Probability that a generated branch is data-dependent (hard to
    /// predict) rather than loop-like (always taken).
    pub branch_entropy: f64,
    /// Probability a block opens with a *guard branch* — a bounds/validity
    /// check whose condition loads from memory (often missing) and is
    /// essentially always correctly predicted. Costless on the baseline,
    /// these are what fences serialize on and what keeps loads "speculative"
    /// for taint tracking.
    pub guard_frac: f64,
    /// Probability a block contains a call to a leaf function.
    pub call_frac: f64,
    /// Probability a block performs heap-churn MTE instrumentation
    /// (`IRG` + `STG` retagging), the toolchain-injected tagging traffic.
    pub retag_frac: f64,
    /// Fraction of data arrays that are MTE-tagged (heap-like).
    pub tagged_frac: f64,
    /// Fraction of memory accesses that touch the *shared* region
    /// (multi-threaded workloads only; 0 for SPEC).
    pub shared_frac: f64,
}

impl Profile {
    /// Average instructions one block expands to (for budget planning).
    pub fn approx_block_len(&self) -> u32 {
        // load ~2 (index + load), store ~2, branch ~3 (load+cmp+branch),
        // call ~2 + leaf, retag ~3.
        self.alu_per_block
            + self.loads_per_block * 2
            + self.stores_per_block * 2
            + self.branches_per_block * 3
            + (self.call_frac * 6.0) as u32
            + (self.retag_frac * 3.0) as u32
            + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Profile {
        Profile {
            name: "t",
            footprint: 1 << 16,
            alu_per_block: 4,
            loads_per_block: 2,
            stores_per_block: 1,
            chase_frac: 0.2,
            indirect_frac: 0.2,
            random_frac: 0.3,
            branches_per_block: 1,
            branch_entropy: 0.4,
            guard_frac: 0.3,
            call_frac: 0.1,
            retag_frac: 0.05,
            tagged_frac: 0.5,
            shared_frac: 0.0,
        }
    }

    #[test]
    fn block_length_estimate_is_positive_and_plausible() {
        let est = p().approx_block_len();
        assert!((10..100).contains(&est), "estimate {est}");
    }
}
