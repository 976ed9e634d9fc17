//! Architectural (functional) memory.

use sas_isa::VirtAddr;
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Sparse byte-addressable architectural memory.
///
/// Holds the committed memory image. Reads of never-written bytes return 0.
/// Addresses are indexed by their translated (untagged) part, so tagged
/// pointers can be passed directly.
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
    pages: HashMap<u64, Box<[u8; PAGE_BYTES]>>,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_BYTES] {
        self.pages.entry(page).or_insert_with(|| Box::new([0u8; PAGE_BYTES]))
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: VirtAddr) -> u8 {
        let a = addr.untagged().raw();
        match self.pages.get(&(a >> PAGE_SHIFT)) {
            Some(p) => p[(a as usize) & (PAGE_BYTES - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: VirtAddr, value: u8) {
        let a = addr.untagged().raw();
        self.page_mut(a >> PAGE_SHIFT)[(a as usize) & (PAGE_BYTES - 1)] = value;
    }

    /// Reads `width` bytes little-endian, zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    pub fn read(&self, addr: VirtAddr, width: u64) -> u64 {
        assert!((1..=8).contains(&width), "width must be 1..=8, got {width}");
        let mut v = 0u64;
        for i in (0..width).rev() {
            v = (v << 8) | self.read_byte(addr.offset(i as i64)) as u64;
        }
        v
    }

    /// Writes the low `width` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    pub fn write(&mut self, addr: VirtAddr, width: u64, value: u64) {
        assert!((1..=8).contains(&width), "width must be 1..=8, got {width}");
        for i in 0..width {
            self.write_byte(addr.offset(i as i64), (value >> (8 * i)) as u8);
        }
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
            a += n as u64;
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
            a += n as u64;
            rest = &mut rest[n..];
        }
    }

    /// Number of 4 KiB pages materialised.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Serializes every materialised page, sorted by page number so the
    /// byte stream is deterministic regardless of hash-map iteration order.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        e.usz(keys.len());
        for k in keys {
            e.uv(k);
            e.bytes(&self.pages[&k][..]);
        }
    }

    /// Bytes [`MainMemory::encode`] writes: the page count, then per page
    /// its key, its length and its 4 KiB.
    pub fn encoded_len(&self) -> usize {
        use sas_snap::uv_len;
        let per_page = |&k: &u64| uv_len(k) + uv_len(PAGE_BYTES as u64) + PAGE_BYTES;
        uv_len(self.pages.len() as u64) + self.pages.keys().map(per_page).sum::<usize>()
    }

    /// Restores an image serialized by [`MainMemory::encode`], replacing the
    /// current contents.
    ///
    /// # Errors
    ///
    /// Truncated input or a page payload that is not exactly 4 KiB.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let n = d.usz_max(1 << 24)?;
        // Reserve only what the section can hold: each page costs its payload
        // plus at least a key byte and a length byte, so a corrupt count
        // cannot reserve memory the payload does not back.
        let mut pages = HashMap::with_capacity(n.min(d.remaining() / (PAGE_BYTES + 2)));
        for _ in 0..n {
            let k = d.uv()?;
            let bytes = d.bytes()?;
            if bytes.len() != PAGE_BYTES {
                return Err(sas_snap::SnapError::BadValue {
                    what: "memory page size",
                    value: bytes.len() as u64,
                });
            }
            let mut page = Box::new([0u8; PAGE_BYTES]);
            page.copy_from_slice(bytes);
            pages.insert(k, page);
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
        for addr in [0, 0x7F_F000, 0x1234_5000, 0xFFFF_FFFF_F000] {
            let mut e = sas_snap::Enc::new();
            m.encode(&mut e);
            assert_eq!(m.encoded_len(), e.len(), "{} pages", m.resident_pages());
            m.write(VirtAddr::new(addr), 8, addr);
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
        // A few bytes claiming 2^24 pages must not reserve a table sized for
        // them before the first page is read.
        let mut e = sas_snap::Enc::new();
        e.usz(1 << 24);
        e.uv(7);
        let bytes = e.into_bytes();
        let mut m = MainMemory::new();
        m.write(VirtAddr::new(0x40), 8, 5);
        let mut d = sas_snap::Dec::new(&bytes, "mem");
        assert_eq!(m.restore(&mut d), Err(sas_snap::SnapError::Truncated("mem")));
        assert_eq!(m.read(VirtAddr::new(0x40), 8), 5, "a failed restore keeps the old image");
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn invalid_width_panics() {
        MainMemory::new().read(VirtAddr::new(0), 9);
    }
}
