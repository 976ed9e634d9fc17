//! Set-associative timing caches with per-line allocation tags.

use sas_isa::{TagNibble, VirtAddr, LINE_BYTES};
use sas_mte::TagCheckOutcome;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Whether lines carry the four allocation-tag locks (Figure 3) and the
    /// cache performs tag checks at lookup.
    pub tagged: bool,
}

impl CacheConfig {
    /// The paper's L1 D-cache: 32 KB, 2-way, 64 B lines, 2-cycle hit, tagged.
    pub fn l1d() -> CacheConfig {
        CacheConfig { size_bytes: 32 * 1024, ways: 2, hit_latency: 2, tagged: true }
    }

    /// The paper's L2: 1 MB, 16-way, 64 B lines, 12-cycle hit, tagged.
    pub fn l2() -> CacheConfig {
        CacheConfig { size_bytes: 1024 * 1024, ways: 16, hit_latency: 12, tagged: true }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize / self.ways
    }
}

/// Hit/miss and tag-check statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines installed.
    pub fills: u64,
    /// Lines invalidated (coherence or maintenance).
    pub invalidations: u64,
    /// Tag checks performed at this level.
    pub tag_checks: u64,
    /// Tag checks that mismatched.
    pub tag_mismatches: u64,
}

impl CacheStats {
    /// Hit rate in `[0,1]`; 0 if no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    line_addr: u64, // line-aligned untagged address
    valid: bool,
    dirty: bool,
    locks: [TagNibble; 4],
    last_use: u64,
}

impl Line {
    const INVALID: Line = Line {
        line_addr: 0,
        valid: false,
        dirty: false,
        locks: [TagNibble::ZERO; 4],
        last_use: 0,
    };
}

/// A set-associative, LRU, write-back timing cache.
///
/// The cache tracks *presence*, not data (architectural bytes live in
/// [`crate::MainMemory`]); each line additionally stores the four allocation
/// tags of its granules so a lookup can perform the MTE check in parallel
/// with the cache-tag compare (§3.3.1).
///
/// ```
/// use sas_mem::{Cache, CacheConfig};
/// use sas_isa::{TagNibble, VirtAddr};
///
/// let mut c = Cache::new(CacheConfig::l1d());
/// let a = VirtAddr::new(0x1000);
/// assert!(c.probe(a).is_none());
/// c.install(a, [TagNibble::ZERO; 4], 0, false);
/// assert!(c.probe(a).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    use_clock: u64,
}

/// Information about a line found by [`Cache::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHit {
    /// The four allocation-tag locks of the line.
    pub locks: [TagNibble; 4],
    /// Whether the line is dirty.
    pub dirty: bool,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.ways > 0 && cfg.sets() > 0, "degenerate cache geometry {cfg:?}");
        Cache {
            cfg,
            sets: vec![vec![Line::INVALID; cfg.ways]; cfg.sets()],
            stats: CacheStats::default(),
            use_clock: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / LINE_BYTES) as usize) % self.cfg.sets()
    }

    fn find(&self, line_addr: u64) -> Option<(usize, usize)> {
        let si = self.set_index(line_addr);
        self.sets[si]
            .iter()
            .position(|l| l.valid && l.line_addr == line_addr)
            .map(|wi| (si, wi))
    }

    /// Non-mutating presence check (no LRU update, no stats).
    pub fn probe(&self, addr: VirtAddr) -> Option<ProbeHit> {
        let la = addr.line_base().raw();
        self.find(la).map(|(si, wi)| {
            let l = &self.sets[si][wi];
            ProbeHit { locks: l.locks, dirty: l.dirty }
        })
    }

    /// Records a lookup result in the statistics (hit/miss accounting is
    /// driven by the memory system, which knows whether state mutation is
    /// permitted for this access).
    pub fn record_lookup(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }

    /// Updates LRU state for a hit on `addr`.
    pub fn touch(&mut self, addr: VirtAddr) {
        self.use_clock += 1;
        let clock = self.use_clock;
        if let Some((si, wi)) = self.find(addr.line_base().raw()) {
            self.sets[si][wi].last_use = clock;
        }
    }

    /// Marks a present line dirty (store hit).
    pub fn mark_dirty(&mut self, addr: VirtAddr) {
        if let Some((si, wi)) = self.find(addr.line_base().raw()) {
            self.sets[si][wi].dirty = true;
        }
    }

    /// Performs the MTE tag check against the cached locks, if the line is
    /// present and this cache is tagged. Returns `None` on a miss or if the
    /// cache is untagged.
    pub fn tag_check(&mut self, addr: VirtAddr) -> Option<TagCheckOutcome> {
        if !self.cfg.tagged {
            return None;
        }
        let hit = self.probe(addr)?;
        let key = addr.key();
        if key == TagNibble::ZERO {
            return Some(TagCheckOutcome::Unchecked);
        }
        self.stats.tag_checks += 1;
        let lock = hit.locks[addr.granule_in_line()];
        if lock == key {
            Some(TagCheckOutcome::Safe)
        } else {
            self.stats.tag_mismatches += 1;
            Some(TagCheckOutcome::Unsafe)
        }
    }

    /// Installs a line (with its locks), evicting LRU if needed. Returns the
    /// evicted dirty line's address, if a write-back is required.
    pub fn install(
        &mut self,
        addr: VirtAddr,
        locks: [TagNibble; 4],
        _cycle: u64,
        dirty: bool,
    ) -> Option<VirtAddr> {
        let la = addr.line_base().raw();
        self.use_clock += 1;
        let clock = self.use_clock;
        self.stats.fills += 1;
        if let Some((si, wi)) = self.find(la) {
            let line = &mut self.sets[si][wi];
            line.locks = locks;
            line.dirty |= dirty;
            line.last_use = clock;
            return None;
        }
        let si = self.set_index(la);
        let set = &mut self.sets[si];
        let victim = match set.iter().position(|l| !l.valid) {
            Some(wi) => wi,
            None => {
                let (wi, _) =
                    set.iter().enumerate().min_by_key(|(_, l)| l.last_use).expect("ways > 0");
                wi
            }
        };
        let evicted = set[victim];
        set[victim] =
            Line { line_addr: la, valid: true, dirty, locks, last_use: clock };
        if evicted.valid && evicted.dirty {
            Some(VirtAddr::new(evicted.line_addr))
        } else {
            None
        }
    }

    /// Invalidates the line containing `addr` (coherence/maintenance).
    /// Returns `true` if a line was present.
    pub fn invalidate(&mut self, addr: VirtAddr) -> bool {
        if let Some((si, wi)) = self.find(addr.line_base().raw()) {
            self.sets[si][wi] = Line::INVALID;
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Tag-maintenance: updates the cached lock of one granule if the line is
    /// present (the `STG` path of §3.3.1/§3.3.3). Returns `true` if updated.
    pub fn update_lock(&mut self, addr: VirtAddr, tag: TagNibble) -> bool {
        let g = addr.granule_in_line();
        if let Some((si, wi)) = self.find(addr.line_base().raw()) {
            self.sets[si][wi].locks[g] = tag;
            true
        } else {
            false
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.valid).count()
    }

    /// Drops every line (e.g. a full flush).
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            for line in set {
                if line.valid {
                    self.stats.invalidations += 1;
                }
                *line = Line::INVALID;
            }
        }
    }

    /// Serializes the full line array (including invalid ways — their slot
    /// positions steer fill placement), LRU clock and statistics.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        e.usz(self.sets.len());
        e.usz(self.cfg.ways);
        for set in &self.sets {
            for l in set {
                e.uv(l.line_addr);
                e.bool(l.valid);
                e.bool(l.dirty);
                for t in l.locks {
                    e.u8(t.value());
                }
                e.uv(l.last_use);
            }
        }
        e.uv(self.use_clock);
        e.uv(self.stats.hits);
        e.uv(self.stats.misses);
        e.uv(self.stats.fills);
        e.uv(self.stats.invalidations);
        e.uv(self.stats.tag_checks);
        e.uv(self.stats.tag_mismatches);
    }

    /// Restores state serialized by [`Cache::encode`] into a cache built
    /// with the same geometry.
    ///
    /// # Errors
    ///
    /// Truncated input, a geometry mismatch, or an out-of-range tag nibble.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let sets = d.usz()?;
        let ways = d.usz()?;
        if sets != self.sets.len() || ways != self.cfg.ways {
            return Err(sas_snap::SnapError::BadValue {
                what: "cache geometry",
                value: (sets * ways) as u64,
            });
        }
        for set in &mut self.sets {
            for l in set {
                l.line_addr = d.uv()?;
                l.valid = d.bool()?;
                l.dirty = d.bool()?;
                for t in &mut l.locks {
                    let v = d.u8()?;
                    if v > 0xF {
                        return Err(sas_snap::SnapError::BadValue {
                            what: "cache line lock nibble",
                            value: v as u64,
                        });
                    }
                    *t = TagNibble::new(v);
                }
                l.last_use = d.uv()?;
            }
        }
        self.use_clock = d.uv()?;
        self.stats.hits = d.uv()?;
        self.stats.misses = d.uv()?;
        self.stats.fills = d.uv()?;
        self.stats.invalidations = d.uv()?;
        self.stats.tag_checks = d.uv()?;
        self.stats.tag_mismatches = d.uv()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512 B
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, hit_latency: 1, tagged: true })
    }

    #[test]
    fn config_geometry() {
        assert_eq!(CacheConfig::l1d().sets(), 256);
        assert_eq!(CacheConfig::l2().sets(), 1024);
        assert_eq!(tiny().config().sets(), 4);
    }

    #[test]
    fn probe_miss_then_hit_after_install() {
        let mut c = tiny();
        let a = VirtAddr::new(0x1000);
        assert!(c.probe(a).is_none());
        c.install(a, [TagNibble::new(1); 4], 0, false);
        assert!(c.probe(a).is_some());
        // Another address in the same line also hits.
        assert!(c.probe(VirtAddr::new(0x103F)).is_some());
        assert!(c.probe(VirtAddr::new(0x1040)).is_none());
    }

    #[test]
    fn lru_eviction_prefers_least_recent() {
        let mut c = tiny();
        // Set stride: 4 sets => same set every 4*64 = 256 bytes.
        let a = VirtAddr::new(0x0000);
        let b = VirtAddr::new(0x0100);
        let d = VirtAddr::new(0x0200);
        c.install(a, [TagNibble::ZERO; 4], 0, false);
        c.install(b, [TagNibble::ZERO; 4], 1, false);
        c.touch(a); // a is now MRU
        c.install(d, [TagNibble::ZERO; 4], 2, false); // evicts b
        assert!(c.probe(a).is_some());
        assert!(c.probe(b).is_none());
        assert!(c.probe(d).is_some());
    }

    #[test]
    fn dirty_eviction_returns_writeback_addr() {
        let mut c = tiny();
        let a = VirtAddr::new(0x0000);
        let b = VirtAddr::new(0x0100);
        let d = VirtAddr::new(0x0200);
        c.install(a, [TagNibble::ZERO; 4], 0, true);
        c.install(b, [TagNibble::ZERO; 4], 1, false);
        let wb = c.install(d, [TagNibble::ZERO; 4], 2, false);
        assert_eq!(wb, Some(a));
    }

    #[test]
    fn tag_check_per_granule() {
        let mut c = tiny();
        let line = VirtAddr::new(0x2000);
        let locks = [TagNibble::new(1), TagNibble::new(2), TagNibble::new(3), TagNibble::new(4)];
        c.install(line, locks, 0, false);
        // Granule 2 (offset 32..48) is locked with 3.
        let ok = VirtAddr::new(0x2020).with_key(TagNibble::new(3));
        let bad = VirtAddr::new(0x2020).with_key(TagNibble::new(1));
        assert_eq!(c.tag_check(ok), Some(TagCheckOutcome::Safe));
        assert_eq!(c.tag_check(bad), Some(TagCheckOutcome::Unsafe));
        assert_eq!(c.stats().tag_checks, 2);
        assert_eq!(c.stats().tag_mismatches, 1);
    }

    #[test]
    fn untagged_key_skips_check() {
        let mut c = tiny();
        c.install(VirtAddr::new(0x2000), [TagNibble::new(7); 4], 0, false);
        assert_eq!(c.tag_check(VirtAddr::new(0x2000)), Some(TagCheckOutcome::Unchecked));
        assert_eq!(c.stats().tag_checks, 0);
    }

    #[test]
    fn untagged_cache_never_checks() {
        let mut c = Cache::new(CacheConfig { size_bytes: 512, ways: 2, hit_latency: 1, tagged: false });
        c.install(VirtAddr::new(0x2000), [TagNibble::new(7); 4], 0, false);
        let p = VirtAddr::new(0x2000).with_key(TagNibble::new(1));
        assert_eq!(c.tag_check(p), None);
    }

    #[test]
    fn tag_check_on_miss_is_none() {
        let mut c = tiny();
        let p = VirtAddr::new(0x5000).with_key(TagNibble::new(1));
        assert_eq!(c.tag_check(p), None);
    }

    #[test]
    fn update_lock_changes_future_checks() {
        let mut c = tiny();
        let line = VirtAddr::new(0x2000);
        c.install(line, [TagNibble::new(1); 4], 0, false);
        let p = VirtAddr::new(0x2000).with_key(TagNibble::new(9));
        assert_eq!(c.tag_check(p), Some(TagCheckOutcome::Unsafe));
        assert!(c.update_lock(VirtAddr::new(0x2000), TagNibble::new(9)));
        assert_eq!(c.tag_check(p), Some(TagCheckOutcome::Safe));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        let a = VirtAddr::new(0x3000);
        c.install(a, [TagNibble::ZERO; 4], 0, false);
        assert!(c.invalidate(a));
        assert!(c.probe(a).is_none());
        assert!(!c.invalidate(a));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn flush_all_empties_cache() {
        let mut c = tiny();
        c.install(VirtAddr::new(0), [TagNibble::ZERO; 4], 0, false);
        c.install(VirtAddr::new(0x100), [TagNibble::ZERO; 4], 0, false);
        assert_eq!(c.resident_lines(), 2);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn hit_rate_accounting() {
        let mut c = tiny();
        c.record_lookup(true);
        c.record_lookup(false);
        c.record_lookup(true);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn reinstall_updates_locks_in_place() {
        let mut c = tiny();
        let a = VirtAddr::new(0x4000);
        c.install(a, [TagNibble::new(1); 4], 0, false);
        c.install(a, [TagNibble::new(2); 4], 1, true);
        assert_eq!(c.resident_lines(), 1);
        let h = c.probe(a).unwrap();
        assert_eq!(h.locks, [TagNibble::new(2); 4]);
        assert!(h.dirty);
    }
}
