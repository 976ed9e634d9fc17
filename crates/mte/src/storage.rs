//! The allocation-tag ("lock") store.

use sas_isa::{TagNibble, VirtAddr, GRANULE_BYTES, LINE_BYTES};
use std::collections::HashMap;

/// Sparse storage of the 4-bit allocation tag of every 16-byte granule.
///
/// On hardware the tags live in a dedicated carve-out of DRAM ("tag storage
/// with a specific base address", §3.3.4) and are cached alongside data. The
/// simulator keeps them in a sparse map; granules never written default to
/// tag `0` (untagged memory).
///
/// ```
/// use sas_mte::TagStorage;
/// use sas_isa::{TagNibble, VirtAddr};
///
/// let mut tags = TagStorage::new();
/// tags.set_range(VirtAddr::new(0x1000), 32, TagNibble::new(0x3));
/// assert_eq!(tags.tag_of(VirtAddr::new(0x1008)).value(), 0x3);
/// assert_eq!(tags.tag_of(VirtAddr::new(0x1010)).value(), 0x3);
/// assert_eq!(tags.tag_of(VirtAddr::new(0x1020)).value(), 0x0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TagStorage {
    /// One byte-per-granule page covering 4 KiB of data each; pages are
    /// keyed by `granule_index >> 8`. A dense page costs one hash per 256
    /// granules instead of one per granule, which is what makes bulk
    /// `set_range` calls (workload setup colours megabytes) and the
    /// per-line lock fetch on every cache fill cheap.
    pages: HashMap<u64, Box<[u8; PAGE_GRANULES]>>,
    /// Granules currently holding a non-zero tag, maintained incrementally.
    nonzero: usize,
    writes: u64,
    reads: u64,
}

/// Granules per tag page (4 KiB of data).
const PAGE_GRANULES: usize = 256;

impl TagStorage {
    /// Creates an empty (all-zero-tag) store.
    pub fn new() -> TagStorage {
        TagStorage::default()
    }

    /// The allocation tag of the granule containing `addr`.
    pub fn tag_of(&self, addr: VirtAddr) -> TagNibble {
        let g = addr.granule_index();
        match self.pages.get(&(g >> 8)) {
            Some(p) => TagNibble::new(p[(g & 0xFF) as usize]),
            None => TagNibble::ZERO,
        }
    }

    /// The allocation tag of the granule containing `addr`, counting the
    /// access for statistics (used by the memory-controller model).
    pub fn read_tag(&mut self, addr: VirtAddr) -> TagNibble {
        self.reads += 1;
        self.tag_of(addr)
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_GRANULES] {
        self.pages.entry(page).or_insert_with(|| Box::new([0u8; PAGE_GRANULES]))
    }

    /// Sets the tag of the single granule containing `addr` (the `STG`
    /// instruction).
    pub fn set_granule(&mut self, addr: VirtAddr, tag: TagNibble) {
        self.writes += 1;
        let g = addr.granule_index();
        if tag == TagNibble::ZERO && !self.pages.contains_key(&(g >> 8)) {
            return;
        }
        let slot = &mut self.page_mut(g >> 8)[(g & 0xFF) as usize];
        let delta = (tag != TagNibble::ZERO) as isize - (*slot != 0) as isize;
        *slot = tag.value();
        self.nonzero = self.nonzero.checked_add_signed(delta).expect("nonzero underflow");
    }

    /// Tags every granule overlapping `[base, base+len)`.
    pub fn set_range(&mut self, base: VirtAddr, len: u64, tag: TagNibble) {
        if len == 0 {
            return;
        }
        let first = base.granule_index();
        let last = base.offset(len as i64 - 1).granule_index();
        self.writes += last - first + 1;
        let mut g = first;
        while g <= last {
            let end_in_page = ((g >> 8) << 8) + (PAGE_GRANULES as u64 - 1);
            let upto = end_in_page.min(last);
            if tag == TagNibble::ZERO && !self.pages.contains_key(&(g >> 8)) {
                g = upto + 1;
                continue;
            }
            let lo = (g & 0xFF) as usize;
            let hi = (upto & 0xFF) as usize;
            let slice = &mut self.page_mut(g >> 8)[lo..=hi];
            let was_nonzero = slice.iter().filter(|&&b| b != 0).count();
            let now_nonzero = if tag == TagNibble::ZERO { 0 } else { slice.len() };
            slice.fill(tag.value());
            self.nonzero = self.nonzero + now_nonzero - was_nonzero;
            g = upto + 1;
        }
    }

    /// The four locks of the 64-byte cache line containing `addr`, in granule
    /// order — the layout a tagged cache line stores (Figure 3, right).
    ///
    /// A 64-byte line never straddles a tag page, so this is a single page
    /// lookup plus four byte reads.
    pub fn line_locks(&self, addr: VirtAddr) -> [TagNibble; 4] {
        let g = addr.line_base().granule_index();
        match self.pages.get(&(g >> 8)) {
            Some(p) => {
                let off = (g & 0xFF) as usize;
                [
                    TagNibble::new(p[off]),
                    TagNibble::new(p[off + 1]),
                    TagNibble::new(p[off + 2]),
                    TagNibble::new(p[off + 3]),
                ]
            }
            None => [TagNibble::ZERO; 4],
        }
    }

    /// Number of granules with a non-zero tag.
    pub fn tagged_granules(&self) -> usize {
        self.nonzero
    }

    /// Total tag writes performed (STG traffic).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Total counted tag reads (memory-controller tag fetches).
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Exports tag-storage counters under `mte.*` names.
    pub fn export_metrics(&self, reg: &mut sas_telemetry::MetricsRegistry) {
        reg.counter("mte.tagged_granules", self.tagged_granules() as u64);
        reg.counter("mte.tag_writes", self.write_count());
        reg.counter("mte.tag_reads", self.read_count());
    }

    /// Whether any granule of the line containing `addr` is tagged. Lines
    /// with no tagged granule can skip the tag-storage fetch entirely.
    pub fn line_is_tagged(&self, addr: VirtAddr) -> bool {
        self.line_locks(addr).iter().any(|l| *l != TagNibble::ZERO)
    }

    /// Clears every tag whose granule falls within `[base, base+len)`.
    pub fn clear_range(&mut self, base: VirtAddr, len: u64) {
        self.set_range(base, len, TagNibble::ZERO);
    }

    /// Fault injection: flips bit `bit & 3` of the stored tag of the granule
    /// containing `addr`, returning the corrupted value. Deliberately does
    /// *not* participate in the coherence machinery — the point is to model
    /// silent corruption of the tag carve-out that cached copies no longer
    /// agree with.
    pub fn flip_granule_bit(&mut self, addr: VirtAddr, bit: u8) -> TagNibble {
        let flipped = TagNibble::new(self.tag_of(addr).value() ^ (1 << (bit & 3)));
        self.set_granule(addr, flipped);
        flipped
    }

    /// Serializes the store for a snapshot: pages in ascending key order
    /// (deterministic bytes for identical state), then the access counters.
    /// `nonzero` is derived state and is recomputed on restore.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        e.usz(keys.len());
        for k in keys {
            e.uv(k);
            e.bytes(&self.pages[&k][..]);
        }
        e.uv(self.writes);
        e.uv(self.reads);
    }

    /// Bytes [`TagStorage::encode`] writes.
    pub fn encoded_len(&self) -> usize {
        use sas_snap::uv_len;
        let per_page = |&k: &u64| uv_len(k) + uv_len(PAGE_GRANULES as u64) + PAGE_GRANULES;
        uv_len(self.pages.len() as u64)
            + self.pages.keys().map(per_page).sum::<usize>()
            + uv_len(self.writes)
            + uv_len(self.reads)
    }

    /// Restores the store from a snapshot section, replacing all state.
    ///
    /// # Errors
    ///
    /// Any malformed field (page size, tag value out of nibble range).
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let n = d.usz_max(1 << 24)?;
        // Reserve only what the section can hold: each page costs its payload
        // plus at least a key byte and a length byte.
        let mut pages = HashMap::with_capacity(n.min(d.remaining() / (PAGE_GRANULES + 2)));
        let mut nonzero = 0usize;
        for _ in 0..n {
            let k = d.uv()?;
            let bytes = d.bytes()?;
            if bytes.len() != PAGE_GRANULES {
                return Err(sas_snap::SnapError::BadValue {
                    what: "tag page size",
                    value: bytes.len() as u64,
                });
            }
            let mut page = Box::new([0u8; PAGE_GRANULES]);
            for (slot, &b) in page.iter_mut().zip(bytes) {
                if b > 0xF {
                    return Err(sas_snap::SnapError::BadValue {
                        what: "stored tag",
                        value: b as u64,
                    });
                }
                nonzero += (b != 0) as usize;
                *slot = b;
            }
            pages.insert(k, page);
        }
        self.pages = pages;
        self.nonzero = nonzero;
        self.writes = d.uv()?;
        self.reads = d.uv()?;
        Ok(())
    }

    /// Returns `LINE_BYTES`-aligned addresses of all lines that contain at
    /// least one tagged granule (used by coherence maintenance tests).
    pub fn tagged_lines(&self) -> Vec<VirtAddr> {
        let mut lines: Vec<u64> = Vec::new();
        for (page, bytes) in &self.pages {
            for (i, &b) in bytes.iter().enumerate() {
                if b != 0 {
                    let g = (page << 8) + i as u64;
                    lines.push((g * GRANULE_BYTES) & !(LINE_BYTES - 1));
                }
            }
        }
        lines.sort_unstable();
        lines.dedup();
        lines.into_iter().map(VirtAddr::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tag_is_zero() {
        let t = TagStorage::new();
        assert_eq!(t.tag_of(VirtAddr::new(0xDEAD_BEEF)), TagNibble::ZERO);
    }

    #[test]
    fn set_range_covers_partial_granules() {
        let mut t = TagStorage::new();
        // 1 byte at offset 15 followed by 2 bytes: straddles two granules.
        t.set_range(VirtAddr::new(15), 2, TagNibble::new(5));
        assert_eq!(t.tag_of(VirtAddr::new(0)).value(), 5);
        assert_eq!(t.tag_of(VirtAddr::new(16)).value(), 5);
        assert_eq!(t.tag_of(VirtAddr::new(32)).value(), 0);
    }

    #[test]
    fn set_range_zero_len_is_noop() {
        let mut t = TagStorage::new();
        t.set_range(VirtAddr::new(0x100), 0, TagNibble::new(7));
        assert_eq!(t.tagged_granules(), 0);
    }

    #[test]
    fn line_locks_layout_matches_figure3() {
        let mut t = TagStorage::new();
        let line = VirtAddr::new(0x2000);
        for (i, tag) in [1u8, 2, 3, 4].into_iter().enumerate() {
            t.set_granule(line.offset(i as i64 * 16), TagNibble::new(tag));
        }
        let locks = t.line_locks(VirtAddr::new(0x2037)); // anywhere in the line
        assert_eq!(locks.map(|l| l.value()), [1, 2, 3, 4]);
    }

    #[test]
    fn zero_tag_reclaims_storage() {
        let mut t = TagStorage::new();
        t.set_granule(VirtAddr::new(0x40), TagNibble::new(9));
        assert_eq!(t.tagged_granules(), 1);
        t.set_granule(VirtAddr::new(0x40), TagNibble::ZERO);
        assert_eq!(t.tagged_granules(), 0);
    }

    #[test]
    fn tagged_address_key_does_not_perturb_indexing() {
        let mut t = TagStorage::new();
        let tagged_ptr = VirtAddr::new(0x3000).with_key(TagNibble::new(0xb));
        t.set_granule(tagged_ptr, TagNibble::new(0x7));
        assert_eq!(t.tag_of(VirtAddr::new(0x3000)).value(), 0x7);
    }

    #[test]
    fn line_is_tagged_and_tagged_lines() {
        let mut t = TagStorage::new();
        t.set_granule(VirtAddr::new(0x1010), TagNibble::new(3));
        assert!(t.line_is_tagged(VirtAddr::new(0x103F)));
        assert!(!t.line_is_tagged(VirtAddr::new(0x1040)));
        assert_eq!(t.tagged_lines(), vec![VirtAddr::new(0x1000)]);
    }

    #[test]
    fn read_and_write_counters() {
        let mut t = TagStorage::new();
        t.set_range(VirtAddr::new(0), 64, TagNibble::new(1));
        assert_eq!(t.write_count(), 4);
        let _ = t.read_tag(VirtAddr::new(0));
        assert_eq!(t.read_count(), 1);
    }

    #[test]
    fn encoded_len_is_what_encode_writes() {
        let mut t = TagStorage::new();
        for addr in [0, 0x7F_F000, 0x1234_5000, 0xFFFF_FFFF_F000] {
            let mut e = sas_snap::Enc::new();
            t.encode(&mut e);
            assert_eq!(t.encoded_len(), e.len(), "after tagging below {addr:#x}");
            t.set_range(VirtAddr::new(addr), 64, TagNibble::new(3));
            let _ = t.read_tag(VirtAddr::new(addr));
        }
    }

    #[test]
    fn restore_of_a_huge_page_count_fails_as_truncated() {
        // A few bytes claiming 2^24 pages must not reserve a table sized for
        // them before the first page is read.
        let mut e = sas_snap::Enc::new();
        e.usz(1 << 24);
        e.uv(7);
        let bytes = e.into_bytes();
        let mut t = TagStorage::new();
        t.set_granule(VirtAddr::new(0x40), TagNibble::new(9));
        let mut d = sas_snap::Dec::new(&bytes, "mem");
        assert_eq!(t.restore(&mut d), Err(sas_snap::SnapError::Truncated("mem")));
        assert_eq!(t.tag_of(VirtAddr::new(0x40)), TagNibble::new(9));
    }

    #[test]
    fn flip_granule_bit_corrupts_in_place() {
        let mut t = TagStorage::new();
        t.set_granule(VirtAddr::new(0x1000), TagNibble::new(0b0101));
        assert_eq!(t.flip_granule_bit(VirtAddr::new(0x1000), 1), TagNibble::new(0b0111));
        assert_eq!(t.tag_of(VirtAddr::new(0x1000)), TagNibble::new(0b0111));
        // Flipping a zero tag creates a tagged granule; flipping back clears.
        assert_eq!(t.flip_granule_bit(VirtAddr::new(0x2000), 0), TagNibble::new(1));
        assert_eq!(t.flip_granule_bit(VirtAddr::new(0x2000), 0), TagNibble::ZERO);
        assert_eq!(t.tag_of(VirtAddr::new(0x2000)), TagNibble::ZERO);
    }
}
