//! Initialised data memory, held as shared page frames.
//!
//! A [`DataSegment`] of at least a page keeps its bytes in 4 KiB frames
//! aligned to absolute page addresses, the same [`Page`] type the
//! simulator's main memory stores. Cloning such a segment copies frame
//! pointers, not bytes, and a machine built from the program adopts the
//! frames as its memory pages until a store writes one of them. A shorter
//! segment keeps just its bytes, which a machine copies in, so a program
//! of many small segments (a `.sasm` file has one per `.data` line) costs
//! about its data size, not a page per segment.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// log2 of [`PAGE_BYTES`].
pub const PAGE_SHIFT: u32 = 12;
/// Bytes per memory page.
pub const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// One 4 KiB page frame, shared by pointer until someone writes it
/// (`Arc::make_mut`).
pub type Page = Arc<[u8; PAGE_BYTES]>;

/// A chunk of initialised data memory.
///
/// ```
/// use sas_isa::{DataSegment, PAGE_BYTES};
///
/// let mut seg = DataSegment::new(0x1ffe, &[1, 2, 3, 4]);
/// seg.write(1, &[9, 9]);
/// assert_eq!(seg.to_vec(), vec![1, 9, 9, 4]);
/// assert_eq!(seg.pages().count(), 2, "the bytes straddle a page boundary");
/// assert!(seg.pages().all(|p| p.frame.is_none()), "short: kept as bytes");
///
/// let big = DataSegment::new(0x4000, &[7; PAGE_BYTES]);
/// assert!(big.pages().all(|p| p.frame.is_some()), "a page or more: frames");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DataSegment {
    base: u64,
    bytes: Bytes,
}

#[derive(Clone, PartialEq, Eq)]
enum Bytes {
    /// Fewer than [`PAGE_BYTES`] bytes, kept as they are.
    Short(Box<[u8]>),
    /// At least [`PAGE_BYTES`] bytes. Frame `i` holds page `i` counted
    /// from the page that contains `base`; the bytes of a frame outside
    /// the segment are zero, like a page memory has never written.
    Frames { len: usize, frames: Box<[Page]> },
}

/// The part of a [`DataSegment`] that falls in one page.
#[derive(Debug, Clone)]
pub struct PageBytes<'a> {
    /// The page's address, wrapping like the segment's raw base.
    pub addr: u64,
    /// Where in the page the bytes lie.
    pub range: Range<usize>,
    /// The segment's bytes in this page.
    pub bytes: &'a [u8],
    /// The whole frame, zero outside `range`, when the segment keeps
    /// its bytes as frames.
    pub frame: Option<&'a Page>,
}

impl DataSegment {
    /// A segment of `len` bytes at `base` whose bytes are `next()` in
    /// ascending address order, written straight into place.
    pub fn filled(base: u64, len: usize, mut next: impl FnMut() -> u8) -> DataSegment {
        if len < PAGE_BYTES {
            let bytes = Bytes::Short((0..len).map(|_| next()).collect());
            return DataSegment { base, bytes };
        }
        let mut frames = zero_frames(base, len);
        for (frame, range) in frames.iter_mut().zip(ranges(base, len)) {
            for b in &mut Arc::make_mut(frame)[range] {
                *b = next();
            }
        }
        DataSegment {
            base,
            bytes: Bytes::Frames { len, frames },
        }
    }

    /// A segment holding a copy of `bytes` at `base`.
    pub fn new(base: u64, bytes: &[u8]) -> DataSegment {
        if bytes.len() < PAGE_BYTES {
            return DataSegment {
                base,
                bytes: Bytes::Short(bytes.into()),
            };
        }
        let mut seg = DataSegment {
            base,
            bytes: Bytes::Frames {
                len: bytes.len(),
                frames: zero_frames(base, bytes.len()),
            },
        };
        seg.write(0, bytes);
        seg
    }

    /// Untagged base virtual address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.bytes {
            Bytes::Short(b) => b.len(),
            Bytes::Frames { len, .. } => *len,
        }
    }

    /// Whether the segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrites the bytes from `offset` on with `bytes`, copying a frame
    /// first if another segment shares it.
    ///
    /// # Panics
    ///
    /// Panics if the write runs past the end of the segment.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) {
        let len = self.len();
        assert!(
            offset
                .checked_add(bytes.len())
                .is_some_and(|end| end <= len),
            "write of {} bytes at offset {offset} runs past a {len}-byte segment",
            bytes.len(),
        );
        let frames = match &mut self.bytes {
            Bytes::Short(b) => {
                b[offset..offset + bytes.len()].copy_from_slice(bytes);
                return;
            }
            Bytes::Frames { frames, .. } => frames,
        };
        let mut at = page_offset(self.base) + offset;
        let mut rest = bytes;
        while !rest.is_empty() {
            let (frame, off) = (at >> PAGE_SHIFT, at & (PAGE_BYTES - 1));
            let n = (PAGE_BYTES - off).min(rest.len());
            Arc::make_mut(&mut frames[frame])[off..off + n].copy_from_slice(&rest[..n]);
            at += n;
            rest = &rest[n..];
        }
    }

    /// The segment page by page, in ascending address order. This is the
    /// byte view every reader goes through.
    pub fn pages(&self) -> impl Iterator<Item = PageBytes<'_>> {
        let first_page = self.base & !(PAGE_BYTES as u64 - 1);
        let first = page_offset(self.base);
        ranges(self.base, self.len())
            .enumerate()
            .map(move |(i, range)| {
                let (bytes, frame) = match &self.bytes {
                    Bytes::Short(b) => {
                        let at = i * PAGE_BYTES + range.start - first;
                        (&b[at..at + range.len()], None)
                    }
                    Bytes::Frames { frames, .. } => (&frames[i][range.clone()], Some(&frames[i])),
                };
                PageBytes {
                    addr: first_page.wrapping_add((i as u64) << PAGE_SHIFT),
                    range,
                    bytes,
                    frame,
                }
            })
    }

    /// A copy of the segment's bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        match &self.bytes {
            Bytes::Short(b) => b.to_vec(),
            Bytes::Frames { len, .. } => {
                let mut out = Vec::with_capacity(*len);
                for p in self.pages() {
                    out.extend_from_slice(p.bytes);
                }
                out
            }
        }
    }
}

/// Zeroed frames for `len` bytes from `base`.
fn zero_frames(base: u64, len: usize) -> Box<[Page]> {
    let n = ranges(base, len).count();
    (0..n).map(|_| Arc::new([0; PAGE_BYTES])).collect()
}

/// Where `base` lies within its page.
fn page_offset(base: u64) -> usize {
    (base as usize) & (PAGE_BYTES - 1)
}

/// The part of each page that `len` bytes from `base` cover, from the
/// page that contains `base` on.
fn ranges(base: u64, len: usize) -> impl Iterator<Item = Range<usize>> {
    let first = page_offset(base);
    let end = first + len;
    let n = if len == 0 {
        0
    } else {
        end.div_ceil(PAGE_BYTES)
    };
    (0..n).map(move |i| {
        let lo = if i == 0 { first } else { 0 };
        lo..(end - i * PAGE_BYTES).min(PAGE_BYTES)
    })
}

impl fmt::Debug for DataSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataSegment")
            .field("base", &format_args!("{:#x}", self.base))
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_cover_exactly_the_bytes() {
        for (base, len, pages) in [
            (0x1000, 0, 0),
            (0x1000, 1, 1),
            (0x1fff, 2, 2),
            (0x1000, PAGE_BYTES - 1, 1),
            (0x1000, PAGE_BYTES, 1),
            (0x1000, PAGE_BYTES + 1, 2),
            (0x1800, 2 * PAGE_BYTES, 3),
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let seg = DataSegment::new(base, &bytes);
            assert_eq!(seg.pages().count(), pages, "{base:#x}+{len}");
            let framed = seg.pages().filter(|p| p.frame.is_some()).count();
            let frames = if len >= PAGE_BYTES { pages } else { 0 };
            assert_eq!(framed, frames, "{base:#x}+{len}");
            let covered: usize = seg.pages().map(|p| p.range.len()).sum();
            assert_eq!(covered, len, "{base:#x}+{len}");
            assert_eq!(seg.to_vec(), bytes, "{base:#x}+{len}");
        }
    }

    #[test]
    fn bytes_outside_the_segment_stay_zero() {
        let seg = DataSegment::filled(0x1ffd, PAGE_BYTES + 6, || 0xEE);
        let pages: Vec<_> = seg.pages().collect();
        let addrs: Vec<u64> = pages.iter().map(|p| p.addr).collect();
        assert_eq!(addrs, [0x1000, 0x2000, 0x3000]);
        let ranges: Vec<_> = pages.iter().map(|p| p.range.clone()).collect();
        assert_eq!(ranges, [0xffd..0x1000, 0..0x1000, 0..3]);
        assert!(pages[0].frame.unwrap()[..0xffd].iter().all(|&b| b == 0));
        assert!(pages[2].frame.unwrap()[3..].iter().all(|&b| b == 0));
        assert_eq!(seg.to_vec(), vec![0xEE; PAGE_BYTES + 6]);
    }

    #[test]
    fn a_write_to_a_clone_copies_only_the_frame_it_touches() {
        let a = DataSegment::new(0x4000, &[5; 3 * PAGE_BYTES]);
        let mut b = a.clone();
        b.write(PAGE_BYTES + 7, &[1]);
        let shared: Vec<bool> = a
            .pages()
            .zip(b.pages())
            .map(|(x, y)| Arc::ptr_eq(x.frame.unwrap(), y.frame.unwrap()))
            .collect();
        assert_eq!(shared, [true, false, true]);
        assert_eq!(a.to_vec(), vec![5; 3 * PAGE_BYTES]);
        assert_ne!(a, b);
    }

    #[test]
    fn a_write_to_a_short_clone_leaves_the_original() {
        let a = DataSegment::new(0xffe, &[1, 2, 3, 4]);
        let mut b = a.clone();
        b.write(1, &[9, 9, 9]);
        assert_eq!(
            (a.to_vec(), b.to_vec()),
            (vec![1, 2, 3, 4], vec![1, 9, 9, 9])
        );
        let b_pages: Vec<&[u8]> = b.pages().map(|p| p.bytes).collect();
        assert_eq!(b_pages, [&[1, 9][..], &[9, 9][..]]);
    }

    #[test]
    #[should_panic(expected = "runs past")]
    fn a_write_past_the_end_panics() {
        DataSegment::new(0x1000, &[0; 4]).write(2, &[0; 3]);
    }
}
