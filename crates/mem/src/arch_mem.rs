//! Architectural (functional) memory.

use sas_isa::{DataSegment, Page, VirtAddr, PAGE_BYTES, PAGE_SHIFT};
use sas_snap::{Dec, Enc, SnapError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Sparse byte-addressable architectural memory.
///
/// Holds the committed memory image. Reads of never-written bytes return 0.
/// Addresses are indexed by their translated (untagged) part, so tagged
/// pointers can be passed directly.
///
/// Pages are copy-on-write: a clone shares every page with the original,
/// and a write copies a shared page first (`Arc::make_mut`). Loading a
/// program's data segment adopts its frames the same way
/// ([`MainMemory::load_segment`]). A generated segment is not expanded at
/// all: a page that is not held reads through the segment, which computes
/// its frame on first read, and a write copies that frame in. The *base* is
/// the image recorded by [`MainMemory::seal_base`]; a snapshot stores only
/// the held pages that are no longer the base page under the same key.
///
/// ```
/// use sas_mem::MainMemory;
/// use sas_isa::VirtAddr;
///
/// let mut m = MainMemory::new();
/// m.write(VirtAddr::new(0x1000), 8, 0xDEAD_BEEF);
/// assert_eq!(m.read(VirtAddr::new(0x1000), 8), 0xDEAD_BEEF);
/// assert_eq!(m.read(VirtAddr::new(0x1002), 2), 0xDEAD);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: HashMap<u64, Page>,
    /// The pages as [`MainMemory::seal_base`] found them, shared read-only
    /// by every clone.
    base: Arc<HashMap<u64, Page>>,
    /// The loaded generated segments, ascending and disjoint, shared by
    /// every clone. They back the pages `pages` does not hold.
    generated: Arc<Vec<Generated>>,
}

/// A generated segment and the page keys `first..end` it covers.
#[derive(Debug, Clone)]
struct Generated {
    first: u64,
    end: u64,
    seg: DataSegment,
}

/// The generated frame behind page `key`, if a segment covers it.
fn generated_frame(generated: &[Generated], key: u64) -> Option<&Page> {
    let at = generated
        .partition_point(|g| g.first <= key)
        .checked_sub(1)?;
    let g = &generated[at];
    (key < g.end).then(|| g.seg.frame((key - g.first) as usize).expect("whole pages"))
}

/// Page key of a (possibly tagged) address.
fn key_of(addr: u64) -> u64 {
    VirtAddr::new(addr).untagged().raw() >> PAGE_SHIFT
}

/// The translated address `n` bytes past `a`, wrapping like
/// [`VirtAddr::offset`].
fn advance(a: u64, n: usize) -> u64 {
    VirtAddr::new(a.wrapping_add(n as u64)).untagged().raw()
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// Records the current pages as the base image: the build-time memory
    /// that a snapshot leaves out and a restore starts from. `System`'s
    /// constructors seal once, after loading the programs' data segments.
    pub fn seal_base(&mut self) {
        self.base = Arc::new(self.pages.clone());
    }

    /// The page `key` reads: the held page, else a generated frame, else
    /// none (all zero).
    fn page(&self, key: u64) -> Option<&Page> {
        match self.pages.get(&key) {
            Some(p) => Some(p),
            None => generated_frame(&self.generated, key),
        }
    }

    /// The held page `key`, first taking in the page it reads as (a
    /// generated frame or zeros), copied if shared.
    fn page_mut(&mut self, key: u64) -> &mut [u8; PAGE_BYTES] {
        let generated = &self.generated;
        Arc::make_mut(self.pages.entry(key).or_insert_with(|| {
            generated_frame(generated, key)
                .cloned()
                .unwrap_or_else(|| Arc::new([0u8; PAGE_BYTES]))
        }))
    }

    /// Loads a program's data segment.
    ///
    /// A generated segment is recorded, not expanded: its pages read
    /// through it until written. A page this memory already holds becomes
    /// the segment's frame (the segment covers it whole). Should the
    /// segment overlap one recorded before, it is loaded like any other.
    ///
    /// Otherwise a page this memory does not hold and no generated segment
    /// covers becomes the segment's frame itself, shared by pointer (a
    /// frame is zero outside the segment, like an absent page); any other
    /// page, or a segment too short to keep frames, gets only the
    /// segment's bytes copied in, so the zero padding of a frame never
    /// overwrites an earlier segment.
    pub fn load_segment(&mut self, seg: &DataSegment) {
        if seg.is_generated() && self.record_generated(seg) {
            return;
        }
        for page in seg.pages() {
            let key = key_of(page.addr);
            let covered = generated_frame(&self.generated, key).is_some();
            match (self.pages.entry(key), page.frame) {
                (Entry::Vacant(v), Some(frame)) if !covered => {
                    v.insert(Arc::clone(frame));
                }
                (_, _) => self.page_mut(key)[page.range].copy_from_slice(page.bytes),
            }
        }
    }

    /// Records a generated segment in the sorted list, unless it overlaps
    /// one recorded before or wraps the address space.
    fn record_generated(&mut self, seg: &DataSegment) -> bool {
        let first = key_of(seg.base());
        let end = first + (seg.len() >> PAGE_SHIFT) as u64;
        if first == end {
            return true;
        }
        let at = self.generated.partition_point(|g| g.first < first);
        let clear_before = at == 0 || self.generated[at - 1].end <= first;
        let clear_after = self.generated.get(at).is_none_or(|g| end <= g.first);
        if !(clear_before && clear_after) || end > key_of(u64::MAX) + 1 {
            return false;
        }
        for (&key, page) in self.pages.iter_mut() {
            if (first..end).contains(&key) {
                *page = Arc::clone(seg.frame((key - first) as usize).expect("whole pages"));
            }
        }
        let seg = seg.clone();
        Arc::make_mut(&mut self.generated).insert(at, Generated { first, end, seg });
        true
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: VirtAddr) -> u8 {
        let a = addr.untagged().raw();
        match self.page(a >> PAGE_SHIFT) {
            Some(p) => p[(a as usize) & (PAGE_BYTES - 1)],
            None => 0,
        }
    }

    /// Reads `width` bytes little-endian, zero-extended to 64 bits. Each
    /// page the access touches is looked up once.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    pub fn read(&self, addr: VirtAddr, width: u64) -> u64 {
        assert!((1..=8).contains(&width), "width must be 1..=8, got {width}");
        let mut v = [0u8; 8];
        self.read_slice(addr, &mut v[..width as usize]);
        u64::from_le_bytes(v)
    }

    /// Writes the low `width` bytes of `value` little-endian. Each page the
    /// access touches is looked up, and copied if shared, once.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    pub fn write(&mut self, addr: VirtAddr, width: u64, value: u64) {
        assert!((1..=8).contains(&width), "width must be 1..=8, got {width}");
        self.write_bytes(addr, &value.to_le_bytes()[..width as usize]);
    }

    /// Copies a byte slice into memory at `base`.
    ///
    /// Bulk-copies page by page (one page lookup per 4 KiB instead of one
    /// per byte): segment loading moves megabytes per workload, and the
    /// per-byte path made system construction dominate short smoke runs.
    pub fn write_bytes(&mut self, base: VirtAddr, bytes: &[u8]) {
        let mut a = base.untagged().raw();
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - off).min(rest.len());
            self.page_mut(a >> PAGE_SHIFT)[off..off + n].copy_from_slice(&rest[..n]);
            a = advance(a, n);
            rest = &rest[n..];
        }
    }

    /// Reads `len` bytes starting at `base`.
    pub fn read_bytes(&self, base: VirtAddr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_slice(base, &mut out);
        out
    }

    /// Fills `out` with the bytes starting at `base`, bulk-copying page by
    /// page (never-written pages read as zero). The per-line snapshot the
    /// cache-fill path takes on every miss goes through here.
    pub fn read_slice(&self, base: VirtAddr, out: &mut [u8]) {
        let mut a = base.untagged().raw();
        let mut rest = &mut out[..];
        while !rest.is_empty() {
            let off = (a as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - off).min(rest.len());
            match self.page(a >> PAGE_SHIFT) {
                Some(p) => rest[..n].copy_from_slice(&p[off..off + n]),
                None => rest[..n].fill(0),
            }
            a = advance(a, n);
            rest = &mut rest[n..];
        }
    }

    /// Number of 4 KiB pages held: loaded from data given up front, or
    /// written. A generated page that was only read is not held.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The pages a snapshot carries, ascending by key: every page that is
    /// not the base page under the same key. Each key comes with its
    /// distance from the previous one (the first from zero).
    fn changed(&self) -> Vec<(u64, u64)> {
        let mut keys: Vec<u64> = self
            .pages
            .iter()
            .filter(|&(k, p)| !self.base.get(k).is_some_and(|b| Arc::ptr_eq(b, p)))
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        let mut prev = 0;
        keys.into_iter()
            .map(|k| (k, k - std::mem::replace(&mut prev, k)))
            .collect()
    }

    /// Serializes the pages that differ from the base: their count, then
    /// per page its key's delta as a varint and its 4 KiB. Keys ascend
    /// strictly, so only the first delta may be zero.
    pub fn encode(&self, e: &mut Enc) {
        let changed = self.changed();
        e.usz(changed.len());
        for (k, delta) in changed {
            e.uv(delta);
            e.raw(&self.pages[&k][..]);
        }
    }

    /// Bytes [`MainMemory::encode`] writes.
    pub fn encoded_len(&self) -> usize {
        let changed = self.changed();
        let pages: usize = changed
            .iter()
            .map(|&(_, delta)| sas_snap::uv_len(delta) + PAGE_BYTES)
            .sum();
        sas_snap::uv_len(changed.len() as u64) + pages
    }

    /// Restores an image serialized by [`MainMemory::encode`]: the base
    /// first, then the stored pages over it. The image must come from a
    /// memory with the same base and the same generated segments, which
    /// back every page left out; `specasan::snapshot` guarantees that by
    /// checking every core's program fingerprint first.
    ///
    /// # Errors
    ///
    /// Truncated input, a page count the input cannot hold, or a key delta
    /// that is zero after the first page or runs past the address space. On
    /// error the current contents are kept.
    pub fn restore(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        // A page is inserted only once its bytes are read, so a count the
        // input cannot back fails as truncation without growing the table.
        let n = d.usz()?;
        let last_page = VirtAddr::new(u64::MAX).untagged().raw() >> PAGE_SHIFT;
        let mut pages = (*self.base).clone();
        let mut key = 0u64;
        for i in 0..n {
            let delta = d.uv()?;
            key = match key.checked_add(delta) {
                Some(k) if (i == 0 || delta > 0) && k <= last_page => k,
                _ => {
                    return Err(SnapError::BadValue {
                        what: "memory page key delta",
                        value: delta,
                    })
                }
            };
            let page: [u8; PAGE_BYTES] = d.raw(PAGE_BYTES)?.try_into().expect("one page");
            pages.insert(key, Arc::new(page));
        }
        self.pages = pages;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_len_is_what_encode_writes() {
        let mut m = MainMemory::new();
        m.write_bytes(VirtAddr::new(0x7F_E000), &[3; 3 * PAGE_BYTES]);
        m.seal_base();
        for addr in [0, 0x7F_F000, 0x1234_5000, 0x7F_E008, 0xFF_FFFF_FFFF_F000] {
            let mut e = sas_snap::Enc::new();
            m.encode(&mut e);
            assert_eq!(m.encoded_len(), e.len(), "{} pages", m.resident_pages());
            m.write(VirtAddr::new(addr), 8, addr);
        }
    }

    /// `read` and `write` at random widths and addresses, many straddling a
    /// page or wrapping the address space, on a clone of a sealed memory,
    /// agree with a byte-by-byte reference model. The memory the clone was
    /// taken from never changes.
    #[test]
    fn wide_accesses_match_a_bytewise_reference() {
        sas_ptest::check("wide_accesses_match_a_bytewise_reference", 128, |rng| {
            let mut built = MainMemory::new();
            built.write_bytes(VirtAddr::new(0x2000), &[0xA5; 2 * PAGE_BYTES]);
            built.seal_base();
            let mut m = built.clone();
            let mut model: HashMap<u64, u8> = (0x2000..0x4000).map(|a| (a, 0xA5)).collect();
            let byte_at = |addr: VirtAddr, i: u64| addr.offset(i as i64).untagged().raw();
            for _ in 0..64 {
                let edge = [0x2000u64, 0x3000, 0x4000, 0x1_0000_0000, 0][rng.below(5) as usize];
                let top_byte = rng.below(256) << 56;
                let addr =
                    VirtAddr::new(edge.wrapping_add(rng.range(0, 24)).wrapping_sub(12) | top_byte);
                let width = rng.range(1, 9);
                if rng.below(2) == 0 {
                    let value = rng.next_u64();
                    m.write(addr, width, value);
                    for i in 0..width {
                        model.insert(byte_at(addr, i), (value >> (8 * i)) as u8);
                    }
                } else {
                    let want = (0..width).rev().fold(0u64, |v, i| {
                        v << 8 | *model.get(&byte_at(addr, i)).unwrap_or(&0) as u64
                    });
                    assert_eq!(
                        m.read(addr, width),
                        want,
                        "{width}-byte read at {:#x}",
                        addr.raw()
                    );
                }
            }
            assert_eq!(
                built.read_bytes(VirtAddr::new(0x2000), 2 * PAGE_BYTES),
                vec![0xA5; 2 * PAGE_BYTES]
            );
            assert_eq!(built.resident_pages(), 2);
        });
    }

    /// The pages a snapshot of `m` carries, decoded back.
    fn stored_pages(m: &MainMemory) -> usize {
        let mut e = sas_snap::Enc::new();
        m.encode(&mut e);
        let bytes = e.into_bytes();
        sas_snap::Dec::new(&bytes, "mem").usz().unwrap()
    }

    #[test]
    fn a_clone_shares_pages_until_either_side_writes() {
        let mut a = MainMemory::new();
        a.write_bytes(VirtAddr::new(0x1000), &[7; 2 * PAGE_BYTES]);
        a.seal_base();
        assert_eq!(stored_pages(&a), 0, "a sealed memory stores no page");
        let mut b = a.clone();
        b.write(VirtAddr::new(0x1ffc), 8, u64::MAX);
        assert_eq!(a.read(VirtAddr::new(0x1ffc), 8), 0x0707_0707_0707_0707);
        assert_eq!(b.read(VirtAddr::new(0x1ffc), 8), u64::MAX);
        assert_eq!(
            (stored_pages(&a), stored_pages(&b)),
            (0, 2),
            "the straddling write copied two pages"
        );
        a.write(VirtAddr::new(0x1000), 1, 0);
        assert_eq!(b.read(VirtAddr::new(0x1000), 1), 7);
    }

    #[test]
    fn restore_overlays_the_stored_pages_on_the_base() {
        let mut built = MainMemory::new();
        built.write_bytes(VirtAddr::new(0x4000), &[1; 3 * PAGE_BYTES]);
        built.seal_base();
        let mut from = built.clone();
        from.write(VirtAddr::new(0x5000), 8, 0x55);
        from.write(VirtAddr::new(0x9_0000), 8, 0x99);
        let mut e = sas_snap::Enc::new();
        from.encode(&mut e);
        let bytes = e.into_bytes();

        let mut into = built.clone();
        into.write(VirtAddr::new(0x4000), 8, 0x44);
        into.write(VirtAddr::new(0xA_0000), 8, 0xAA);
        let mut d = sas_snap::Dec::new(&bytes, "mem");
        into.restore(&mut d).unwrap();
        d.finish().unwrap();
        for addr in [0x4000, 0x5000, 0x6000, 0x9_0000, 0xA_0000] {
            assert_eq!(
                into.read(VirtAddr::new(addr), 8),
                from.read(VirtAddr::new(addr), 8),
                "{addr:#x}"
            );
        }
        assert_eq!(into.resident_pages(), from.resident_pages());
        assert_eq!(stored_pages(&into), 2);
    }

    fn generated(base: u64, pages: usize, state: u64) -> DataSegment {
        let rng = sas_isa::SplitMix64::new(state);
        DataSegment::generated(base, pages * PAGE_BYTES, rng, 0xff)
    }

    /// A generated page reads through its segment, computed once, and is
    /// held (and stored by a snapshot) only once written.
    #[test]
    fn generated_pages_read_through_until_written() {
        let seg = generated(0x10_000, 3, 1);
        let want = generated(0x10_000, 3, 1).to_vec();
        let mut m = MainMemory::new();
        m.load_segment(&seg);
        m.seal_base();
        assert_eq!((m.resident_pages(), seg.materialised()), (0, 0));
        assert_eq!(m.read_bytes(VirtAddr::new(0x10_000), want.len()), want);
        assert_eq!(m.read_byte(VirtAddr::new(0x12_345)), want[0x2345]);
        assert_eq!((m.resident_pages(), seg.materialised()), (0, 3));
        assert_eq!(m.read(VirtAddr::new(0x13_000), 8), 0, "past the segment");

        let mut c = m.clone();
        c.write(VirtAddr::new(0x11_ffc), 8, u64::MAX);
        assert_eq!((c.resident_pages(), stored_pages(&c)), (2, 2));
        let mut patched = want.clone();
        patched[0x1ffc..0x2004].fill(0xff);
        assert_eq!(c.read_bytes(VirtAddr::new(0x10_000), want.len()), patched);
        assert_eq!(m.read_bytes(VirtAddr::new(0x10_000), want.len()), want);
        assert_eq!(seg.to_vec(), want, "the write reached the segment");

        let mut e = sas_snap::Enc::new();
        c.encode(&mut e);
        let bytes = e.into_bytes();
        let mut into = m.clone();
        into.restore(&mut sas_snap::Dec::new(&bytes, "mem"))
            .unwrap();
        assert_eq!(
            into.read_bytes(VirtAddr::new(0x10_000), want.len()),
            patched
        );
        assert_eq!(into.resident_pages(), 2);
    }

    /// Whatever their kind and however they overlap, segments load as if
    /// each wrote its bytes in turn.
    #[test]
    fn segments_of_every_kind_load_in_order() {
        let bytes = |base, len, v| DataSegment::new(base, &vec![v; len]);
        let segments = [
            bytes(0x1ff0, 0x20, 1),
            generated(0x1000, 2, 7),
            bytes(0x2ff8, 16, 2),
            generated(0x2000, 2, 8),
            generated(0x6000, 1, 9),
            bytes(0x5000, 2 * PAGE_BYTES, 3),
            bytes(0x8000, PAGE_BYTES, 4),
            generated(0x8000, 1, 10),
            generated(0x4000, 1, 11),
        ];
        let mut m = MainMemory::new();
        for seg in &segments {
            m.load_segment(seg);
        }
        let mut reference = MainMemory::new();
        for seg in &segments {
            reference.write_bytes(VirtAddr::new(seg.base()), &seg.to_vec());
        }
        for page in 0..10u64 {
            let at = VirtAddr::new(page << PAGE_SHIFT);
            assert!(
                m.read_bytes(at, PAGE_BYTES) == reference.read_bytes(at, PAGE_BYTES),
                "page {page}"
            );
        }
    }

    #[test]
    fn hostile_page_keys_are_rejected_and_keep_the_old_image() {
        let page = [0u8; PAGE_BYTES];
        let cases: [(&[u64], SnapError); 3] = [
            (
                &[5, 0],
                SnapError::BadValue {
                    what: "memory page key delta",
                    value: 0,
                },
            ),
            (
                &[5, u64::MAX],
                SnapError::BadValue {
                    what: "memory page key delta",
                    value: u64::MAX,
                },
            ),
            (
                &[1 << 44],
                SnapError::BadValue {
                    what: "memory page key delta",
                    value: 1 << 44,
                },
            ),
        ];
        for (deltas, want) in cases {
            let mut e = sas_snap::Enc::new();
            e.usz(deltas.len());
            for &k in deltas {
                e.uv(k);
                e.raw(&page);
            }
            let bytes = e.into_bytes();
            let mut m = MainMemory::new();
            m.write(VirtAddr::new(0x40), 8, 5);
            assert_eq!(
                m.restore(&mut sas_snap::Dec::new(&bytes, "mem")),
                Err(want),
                "{deltas:?}"
            );
            assert_eq!(m.read(VirtAddr::new(0x40), 8), 5, "{deltas:?}");
            assert_eq!(m.resident_pages(), 1, "{deltas:?}");
        }
    }

    #[test]
    fn zero_fill_semantics() {
        let m = MainMemory::new();
        assert_eq!(m.read(VirtAddr::new(0xABCD), 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = MainMemory::new();
        m.write(VirtAddr::new(0x100), 4, 0x0403_0201);
        assert_eq!(m.read_byte(VirtAddr::new(0x100)), 1);
        assert_eq!(m.read_byte(VirtAddr::new(0x103)), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MainMemory::new();
        m.write(VirtAddr::new(0xFFC), 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(VirtAddr::new(0xFFC), 8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn partial_width_masks_value() {
        let mut m = MainMemory::new();
        m.write(VirtAddr::new(0), 1, 0xFFFF_FFFF_FFFF_FFAA);
        assert_eq!(m.read(VirtAddr::new(0), 8), 0xAA);
    }

    #[test]
    fn tagged_pointer_is_transparent() {
        let mut m = MainMemory::new();
        let tagged = VirtAddr::new(0x2000).with_key(sas_isa::TagNibble::new(0xb));
        m.write(tagged, 8, 42);
        assert_eq!(m.read(VirtAddr::new(0x2000), 8), 42);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = MainMemory::new();
        m.write_bytes(VirtAddr::new(0x3000), &[9, 8, 7]);
        assert_eq!(m.read_bytes(VirtAddr::new(0x3000), 3), vec![9, 8, 7]);
    }

    #[test]
    fn restore_of_a_huge_page_count_fails_as_truncated() {
        // A few bytes claiming 2^24 pages must not grow a table by them
        // before the first page is read.
        let mut e = sas_snap::Enc::new();
        e.usz(1 << 24);
        e.uv(7);
        let bytes = e.into_bytes();
        let mut m = MainMemory::new();
        m.write(VirtAddr::new(0x40), 8, 5);
        let mut d = sas_snap::Dec::new(&bytes, "mem");
        assert_eq!(
            m.restore(&mut d),
            Err(sas_snap::SnapError::Truncated("mem"))
        );
        assert_eq!(
            m.read(VirtAddr::new(0x40), 8),
            5,
            "a failed restore keeps the old image"
        );
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn invalid_width_panics() {
        MainMemory::new().read(VirtAddr::new(0), 9);
    }
}
