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
//!
//! A *generated* segment ([`DataSegment::generated`]) is a recipe instead:
//! whole pages of [`SplitMix64`] draws. Its frames are computed the first
//! time something reads them and are then shared by every clone of the
//! segment, so data no one reads costs nothing.

use crate::rng::SplitMix64;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
/// let seg = DataSegment::new(0x1ffe, &[1, 2, 3, 4]);
/// assert_eq!(seg.to_vec(), vec![1, 2, 3, 4]);
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

#[derive(Clone)]
enum Bytes {
    /// Fewer than [`PAGE_BYTES`] bytes, kept as they are.
    Short(Box<[u8]>),
    /// At least [`PAGE_BYTES`] bytes. Frame `i` holds page `i` counted
    /// from the page that contains `base`; the bytes of a frame outside
    /// the segment are zero, like a page memory has never written.
    Frames { len: usize, frames: Box<[Page]> },
    /// Whole pages from a page-aligned base, computed on first read, once
    /// for every clone. Behind one pointer, which keeps every segment (a
    /// `.sasm` program has one per `.data` line) as small as the other
    /// variants allow.
    Generated(Arc<Recipe>),
}

/// A generated segment: byte `i` is draw `i + 1` of a [`SplitMix64`] in
/// `state`, truncated to a byte and masked with `mask`.
struct Recipe {
    state: u64,
    mask: u8,
    /// Frame `i` once something has read it; one per page.
    frames: Box<[OnceLock<Page>]>,
}

/// Two segments are equal when they hold the same bytes given up front, or
/// the same recipe: how much of a generated segment has been computed is
/// not compared.
impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        match (self, other) {
            (Bytes::Short(a), Bytes::Short(b)) => a == b,
            (Bytes::Frames { len: a, frames: x }, Bytes::Frames { len: b, frames: y }) => {
                a == b && x == y
            }
            (Bytes::Generated(a), Bytes::Generated(b)) => {
                (a.frames.len(), a.state, a.mask) == (b.frames.len(), b.state, b.mask)
            }
            _ => false,
        }
    }
}

impl Eq for Bytes {}

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
    /// A segment of `len` pseudorandom bytes at `base`: byte `i` is draw
    /// `i + 1` of `rng` (`rng` itself is not advanced) as a byte, masked
    /// with `mask`. Nothing is computed until a page is read.
    ///
    /// ```
    /// use sas_isa::{DataSegment, SplitMix64, PAGE_BYTES};
    ///
    /// let seg = DataSegment::generated(0x8000, 2 * PAGE_BYTES, SplitMix64::new(9), 0x7f);
    /// assert_eq!(seg.materialised(), 0);
    /// let mut rng = SplitMix64::new(9);
    /// let want: Vec<u8> = (0..2 * PAGE_BYTES).map(|_| rng.next_u64() as u8 & 0x7f).collect();
    /// assert_eq!(seg.to_vec(), want);
    /// assert_eq!(seg.materialised(), 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `base` or `len` is not a multiple of [`PAGE_BYTES`].
    pub fn generated(base: u64, len: usize, rng: SplitMix64, mask: u8) -> DataSegment {
        assert!(
            page_offset(base) == 0 && len.is_multiple_of(PAGE_BYTES),
            "a generated segment covers whole pages, got {len} bytes at {base:#x}"
        );
        let frames = (0..len / PAGE_BYTES).map(|_| OnceLock::new()).collect();
        DataSegment {
            base,
            bytes: Bytes::Generated(Arc::new(Recipe {
                state: rng.state(),
                mask,
                frames,
            })),
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
        let mut frames = zero_frames(base, bytes.len());
        let mut rest = bytes;
        for (frame, range) in frames.iter_mut().zip(ranges(base, bytes.len())) {
            let (now, later) = rest.split_at(range.len());
            Arc::get_mut(frame).expect("a new frame")[range].copy_from_slice(now);
            rest = later;
        }
        DataSegment {
            base,
            bytes: Bytes::Frames {
                len: bytes.len(),
                frames,
            },
        }
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
            Bytes::Generated(r) => r.frames.len() * PAGE_BYTES,
        }
    }

    /// Whether the segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The generator state and byte mask of a generated segment.
    pub(crate) fn recipe(&self) -> Option<(u64, u8)> {
        match &self.bytes {
            Bytes::Generated(r) => Some((r.state, r.mask)),
            _ => None,
        }
    }

    /// Whether the segment is a recipe ([`DataSegment::generated`]) whose
    /// frames are computed when first read.
    pub fn is_generated(&self) -> bool {
        self.recipe().is_some()
    }

    /// Frame `i`, counted from the page that contains the base; `None`
    /// for a segment shorter than a page. A generated frame is computed
    /// on the first call and shared from then on.
    ///
    /// # Panics
    ///
    /// Panics if the segment has no frame `i`.
    pub fn frame(&self, i: usize) -> Option<&Page> {
        match &self.bytes {
            Bytes::Short(_) => None,
            Bytes::Frames { frames, .. } => Some(&frames[i]),
            Bytes::Generated(r) => Some(r.frames[i].get_or_init(|| generate(r.state, r.mask, i))),
        }
    }

    /// How many of the segment's frames exist: every one for bytes given
    /// up front, those read so far for a generated segment, none for a
    /// segment shorter than a page.
    pub fn materialised(&self) -> usize {
        match &self.bytes {
            Bytes::Short(_) => 0,
            Bytes::Frames { frames, .. } => frames.len(),
            Bytes::Generated(r) => r.frames.iter().filter(|f| f.get().is_some()).count(),
        }
    }

    /// The segment page by page, in ascending address order. This is the
    /// byte view every reader goes through; it computes every frame of a
    /// generated segment.
    pub fn pages(&self) -> impl Iterator<Item = PageBytes<'_>> {
        let first_page = self.base & !(PAGE_BYTES as u64 - 1);
        let first = page_offset(self.base);
        ranges(self.base, self.len())
            .enumerate()
            .map(move |(i, range)| {
                let (bytes, frame) = match (&self.bytes, self.frame(i)) {
                    (Bytes::Short(b), _) => {
                        let at = i * PAGE_BYTES + range.start - first;
                        (&b[at..at + range.len()], None)
                    }
                    (_, frame) => {
                        let frame = frame.expect("a segment of a page or more keeps frames");
                        (&frame[range.clone()], Some(frame))
                    }
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
        let mut out = Vec::with_capacity(self.len());
        for p in self.pages() {
            out.extend_from_slice(p.bytes);
        }
        out
    }
}

/// Frame `i` of a generated segment: draws `i * PAGE_BYTES + 1` on.
fn generate(state: u64, mask: u8, i: usize) -> Page {
    let mut rng = SplitMix64::new(state);
    rng.advance((i * PAGE_BYTES) as u64);
    let mut frame = Arc::new([0; PAGE_BYTES]);
    for b in Arc::get_mut(&mut frame).expect("a new frame").iter_mut() {
        *b = rng.next_u64() as u8 & mask;
    }
    frame
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
        let seg = DataSegment::new(0x1ffd, &[0xEE; PAGE_BYTES + 6]);
        let pages: Vec<_> = seg.pages().collect();
        let addrs: Vec<u64> = pages.iter().map(|p| p.addr).collect();
        assert_eq!(addrs, [0x1000, 0x2000, 0x3000]);
        let ranges: Vec<_> = pages.iter().map(|p| p.range.clone()).collect();
        assert_eq!(ranges, [0xffd..0x1000, 0..0x1000, 0..3]);
        assert!(pages[0].frame.unwrap()[..0xffd].iter().all(|&b| b == 0));
        assert!(pages[2].frame.unwrap()[3..].iter().all(|&b| b == 0));
        assert_eq!(seg.to_vec(), vec![0xEE; PAGE_BYTES + 6]);
    }

    /// The bytes of a generated segment are the stream its recipe names,
    /// computed page by page only when read, once for every clone.
    #[test]
    fn generated_frames_are_computed_on_first_read_and_shared() {
        let seg = DataSegment::generated(0x3000, 3 * PAGE_BYTES, SplitMix64::new(42), 0xff);
        let clone = seg.clone();
        assert_eq!((seg.materialised(), clone.materialised()), (0, 0));
        let second = clone.frame(1).unwrap();
        assert!(
            Arc::ptr_eq(second, seg.frame(1).unwrap()),
            "one frame for both"
        );
        assert_eq!(seg.materialised(), 1);
        let mut rng = SplitMix64::new(42);
        let want: Vec<u8> = (0..3 * PAGE_BYTES).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(second[..], want[PAGE_BYTES..2 * PAGE_BYTES]);
        assert_eq!(clone.to_vec(), want);
        assert_eq!(seg.materialised(), 3);
        let addrs: Vec<u64> = seg.pages().map(|p| p.addr).collect();
        assert_eq!(addrs, [0x3000, 0x4000, 0x5000]);
    }

    #[test]
    fn generated_segments_compare_by_recipe() {
        let make =
            |state, mask| DataSegment::generated(0x1000, PAGE_BYTES, SplitMix64::new(state), mask);
        let read = make(1, 0x7f);
        read.to_vec();
        assert_eq!(read, make(1, 0x7f), "materialisation is not compared");
        assert_ne!(make(1, 0x7f), make(2, 0x7f));
        assert_ne!(make(1, 0x7f), make(1, 0xff));
        assert_ne!(
            read,
            DataSegment::new(0x1000, &read.to_vec()),
            "a recipe is not bytes"
        );
    }

    #[test]
    #[should_panic(expected = "whole pages")]
    fn a_generated_segment_must_be_page_aligned() {
        DataSegment::generated(0x1800, PAGE_BYTES, SplitMix64::new(0), 0xff);
    }
}
