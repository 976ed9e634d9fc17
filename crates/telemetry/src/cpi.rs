//! Commit-time CPI-stack attribution.
//!
//! Top-down cycle accounting in the style of gem5's O3 pipeline views:
//! every simulated cycle is attributed to exactly one bucket, so the stack
//! always sums to the cycle count — an invariant the property tests in
//! `crates/core/tests/cpi_prop.rs` enforce across random programs and all
//! eight mitigations. The *mitigation-delay* bucket is split by delay
//! cause (the pipeline's `DelayCause` taxonomy, passed in by index so this
//! crate stays dependency-free) and by construction equals the core's
//! `total_delay_cycles()`.

/// Number of per-cause slots in the mitigation-delay bucket. The pipeline
/// currently defines 9 causes; spare slots let causes grow without a wire
/// format change.
pub const MITIGATION_CAUSE_SLOTS: usize = 16;

/// The bucket one cycle is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpiBucket {
    /// At least one instruction committed this cycle (includes dependency
    /// stalls and multi-cycle ALU work — "doing useful work").
    Base,
    /// Zero-commit cycle with an empty window outside any squash-recovery
    /// window: the front end starved the machine.
    FetchStall,
    /// Zero-commit cycle inside the redirect/refill window after a squash.
    MispredictRecovery,
    /// Zero-commit cycle with the ROB head waiting on the memory hierarchy.
    MemoryBound,
    /// Zero-commit cycle caused by a mitigation delay charged this cycle;
    /// the payload is the `DelayCause` index.
    MitigationDelay(usize),
    /// Zero-commit cycle with the ROB head blocked *unsafe* in the TSH
    /// (tcs = Unsafe, waiting for speculation to resolve).
    TshUnsafeBlock,
}

/// A complete CPI stack: one counter per bucket, mitigation delays split
/// by cause index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// Cycles with at least one commit.
    pub base: u64,
    /// Front-end starvation cycles.
    pub fetch_stall: u64,
    /// Squash-recovery cycles.
    pub mispredict_recovery: u64,
    /// Memory-bound head-of-ROB cycles.
    pub memory_bound: u64,
    /// TSH unsafe-block cycles.
    pub tsh_unsafe_block: u64,
    /// Mitigation-delay cycles, by `DelayCause` index.
    pub mitigation: [u64; MITIGATION_CAUSE_SLOTS],
}

impl CpiStack {
    /// Attributes `n` cycles to `bucket`.
    pub fn add(&mut self, bucket: CpiBucket, n: u64) {
        match bucket {
            CpiBucket::Base => self.base += n,
            CpiBucket::FetchStall => self.fetch_stall += n,
            CpiBucket::MispredictRecovery => self.mispredict_recovery += n,
            CpiBucket::MemoryBound => self.memory_bound += n,
            CpiBucket::MitigationDelay(i) => self.mitigation[i] += n,
            CpiBucket::TshUnsafeBlock => self.tsh_unsafe_block += n,
        }
    }

    /// Sum across every bucket — equals total cycles when attribution runs
    /// once per cycle.
    pub fn total(&self) -> u64 {
        self.base
            + self.fetch_stall
            + self.mispredict_recovery
            + self.memory_bound
            + self.tsh_unsafe_block
            + self.mitigation_total()
    }

    /// Sum of the mitigation-delay bucket across causes.
    pub fn mitigation_total(&self) -> u64 {
        self.mitigation.iter().sum()
    }

    /// Adds another stack into this one (multi-core aggregation).
    pub fn merge(&mut self, other: &CpiStack) {
        self.base += other.base;
        self.fetch_stall += other.fetch_stall;
        self.mispredict_recovery += other.mispredict_recovery;
        self.memory_bound += other.memory_bound;
        self.tsh_unsafe_block += other.tsh_unsafe_block;
        for (a, b) in self.mitigation.iter_mut().zip(other.mitigation.iter()) {
            *a += *b;
        }
    }

    /// Serializes the stack.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        e.uv(self.base);
        e.uv(self.fetch_stall);
        e.uv(self.mispredict_recovery);
        e.uv(self.memory_bound);
        e.uv(self.tsh_unsafe_block);
        for &v in &self.mitigation {
            e.uv(v);
        }
    }

    /// Restores a stack serialized by [`CpiStack::encode`].
    ///
    /// # Errors
    ///
    /// Truncated input.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        self.base = d.uv()?;
        self.fetch_stall = d.uv()?;
        self.mispredict_recovery = d.uv()?;
        self.memory_bound = d.uv()?;
        self.tsh_unsafe_block = d.uv()?;
        for v in self.mitigation.iter_mut() {
            *v = d.uv()?;
        }
        Ok(())
    }

    /// The fixed (non-mitigation) buckets as `(name, value)` pairs.
    fn fixed_buckets(&self) -> [(&'static str, u64); 5] {
        [
            ("base", self.base),
            ("fetch_stall", self.fetch_stall),
            ("mispredict_recovery", self.mispredict_recovery),
            ("memory_bound", self.memory_bound),
            ("tsh_unsafe_block", self.tsh_unsafe_block),
        ]
    }

    /// Renders a human-readable table. `cause_names[i]` labels mitigation
    /// slot `i`; slots past `cause_names.len()` are unnamed and must be 0.
    pub fn render_table(&self, cause_names: &[&str]) -> String {
        let total = self.total().max(1);
        let mut out = String::new();
        let mut row = |name: &str, v: u64| {
            let pct = 100.0 * v as f64 / total as f64;
            let bars = (pct / 2.0).round() as usize;
            out.push_str(&format!(
                "  {name:<28} {v:>12}  {pct:>5.1}%  {}\n",
                "#".repeat(bars)
            ));
        };
        for (name, v) in self.fixed_buckets() {
            row(name, v);
        }
        for (i, &v) in self.mitigation.iter().enumerate() {
            if v > 0 {
                let label = cause_names.get(i).copied().unwrap_or("?");
                row(&format!("mitigation:{label}"), v);
            }
        }
        out.push_str(&format!("  {:<28} {:>12}  100.0%\n", "total", self.total()));
        out
    }

    /// Renders the stack as a JSON object (nested `mitigation` object keyed
    /// by cause name, zero-valued causes omitted), for bench JSONL rows;
    /// runner manifest rows keep every field a scalar and carry
    /// [`CpiStack::encode_flat`] instead.
    pub fn to_json(&self, cause_names: &[&str]) -> String {
        let mut s = String::from("{");
        for (name, v) in self.fixed_buckets() {
            s.push_str(&format!("\"{name}\":{v},"));
        }
        s.push_str("\"mitigation\":{");
        let mut first = true;
        for (i, &v) in self.mitigation.iter().enumerate() {
            if v > 0 {
                if !first {
                    s.push(',');
                }
                first = false;
                let label = cause_names.get(i).copied().unwrap_or("slot?");
                s.push_str(&format!("\"{label}\":{v}"));
            }
        }
        s.push_str("}}");
        s
    }

    /// Encodes the stack as a single flat token string
    /// (`base=12;fetch_stall=3;...;TaintedAddress=9`), safe to carry as a
    /// scalar string field in a runner manifest row.
    pub fn encode_flat(&self, cause_names: &[&str]) -> String {
        let mut parts: Vec<String> = self
            .fixed_buckets()
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        for (i, &v) in self.mitigation.iter().enumerate() {
            if v > 0 {
                let label = cause_names.get(i).copied().unwrap_or("slot?");
                parts.push(format!("{label}={v}"));
            }
        }
        parts.join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["CauseA", "CauseB"];

    fn sample() -> CpiStack {
        let mut c = CpiStack::default();
        c.add(CpiBucket::Base, 50);
        c.add(CpiBucket::FetchStall, 10);
        c.add(CpiBucket::MispredictRecovery, 5);
        c.add(CpiBucket::MemoryBound, 20);
        c.add(CpiBucket::TshUnsafeBlock, 3);
        c.add(CpiBucket::MitigationDelay(1), 12);
        c
    }

    #[test]
    fn totals_sum_every_bucket() {
        let c = sample();
        assert_eq!(c.total(), 100);
        assert_eq!(c.mitigation_total(), 12);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.total(), 200);
        assert_eq!(a.mitigation[1], 24);
    }

    #[test]
    fn json_encoding_is_an_object_with_named_causes() {
        let j = sample().to_json(NAMES);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"base\":50"));
        assert!(j.contains("\"mitigation\":{\"CauseB\":12}"));
        // Must parse under our own strict validator.
        crate::json::parse(&j).expect("cpi json parses");
    }

    #[test]
    fn flat_encoding_has_no_json_metacharacters() {
        let f = sample().encode_flat(NAMES);
        assert!(f.contains("base=50"));
        assert!(f.contains("CauseB=12"));
        assert!(!f.contains('"') && !f.contains('{'));
    }

    #[test]
    fn table_mentions_every_nonzero_bucket() {
        let t = sample().render_table(NAMES);
        assert!(t.contains("mitigation:CauseB"));
        assert!(t.contains("total"));
    }
}
