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
/// ([`MainMemory::load_segment`]). The *base* is the image recorded by
/// [`MainMemory::seal_base`]; a snapshot stores only the pages that are no
/// longer the base page under the same key.
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

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_BYTES] {
        Arc::make_mut(
            self.pages
                .entry(page)
                .or_insert_with(|| Arc::new([0u8; PAGE_BYTES])),
        )
    }

    /// Loads a program's data segment. A page this memory does not hold
    /// yet becomes the segment's frame itself, shared by pointer (a frame
    /// is zero outside the segment, like an absent page); a page already
    /// present, or a segment too short to keep frames, gets only the
    /// segment's bytes copied in, so the zero padding of a frame never
    /// overwrites an earlier segment.
    pub fn load_segment(&mut self, seg: &DataSegment) {
        for page in seg.pages() {
            let key = VirtAddr::new(page.addr).untagged().raw() >> PAGE_SHIFT;
            match (self.pages.entry(key), page.frame) {
                (Entry::Vacant(v), Some(frame)) => {
                    v.insert(Arc::clone(frame));
                }
                (entry, _) => {
                    let held = entry.or_insert_with(|| Arc::new([0u8; PAGE_BYTES]));
                    Arc::make_mut(held)[page.range].copy_from_slice(page.bytes);
                }
            }
        }
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: VirtAddr) -> u8 {
        let a = addr.untagged().raw();
        match self.pages.get(&(a >> PAGE_SHIFT)) {
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
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => rest[..n].copy_from_slice(&p[off..off + n]),
                None => rest[..n].fill(0),
            }
            a = advance(a, n);
            rest = &mut rest[n..];
        }
    }

    /// Number of 4 KiB pages materialised.
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
    /// memory with the same base; `specasan::snapshot` guarantees that by
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
