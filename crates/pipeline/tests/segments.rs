//! Loading data segments into a machine's memory.
//!
//! Random programs (one to four cores, segments at unaligned bases, 0 to 3
//! pages long, several often inside one page, overlapping across cores)
//! are built into a `System` and checked against a bytewise reference
//! load through `MainMemory::write_bytes` in core order. A page only one
//! segment of a page or more touches is that segment's frame, shared by
//! pointer with every clone of the program and adopted by the machine's
//! memory, and a simulated store copies only the page it writes.
//!
//! Each core may also carry one generated segment (whole pages of a
//! recipe, disjoint from the other cores' ones) among its other segments.
//! Building computes none of its frames but those a segment given as bytes
//! shares a page with, and the machine holds none of its pages but those.

use sas_isa::{DataSegment, Page, Program, ProgramBuilder, Reg, SplitMix64, VirtAddr, PAGE_BYTES};
use sas_mem::{MainMemory, MemConfig};
use sas_pipeline::{CoreConfig, MitigationPolicy, NoPolicy, RunExit, System};
use sas_ptest::{check, Rng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Start of the eight pages every segment falls in.
const WINDOW: u64 = 0x10_0000;
const PAGE: u64 = PAGE_BYTES as u64;

/// One segment of a random layout.
#[derive(Debug, Clone)]
enum Seg {
    /// Bytes given up front.
    Bytes(u64, Vec<u8>),
    /// A recipe: `pages` whole pages from `base` of draws from `state`.
    Generated {
        base: u64,
        pages: u64,
        state: u64,
        mask: u8,
    },
}

impl Seg {
    fn base(&self) -> u64 {
        match *self {
            Seg::Bytes(base, _) | Seg::Generated { base, .. } => base,
        }
    }

    /// The bytes, drawn here rather than read from a segment.
    fn bytes(&self) -> Vec<u8> {
        match *self {
            Seg::Bytes(_, ref b) => b.clone(),
            Seg::Generated {
                pages, state, mask, ..
            } => {
                let mut rng = SplitMix64::new(state);
                (0..pages * PAGE)
                    .map(|_| rng.next_u64() as u8 & mask)
                    .collect()
            }
        }
    }

    fn segment(&self) -> DataSegment {
        match *self {
            Seg::Bytes(base, ref b) => DataSegment::new(base, b),
            Seg::Generated {
                base,
                pages,
                state,
                mask,
            } => {
                DataSegment::generated(base, (pages * PAGE) as usize, SplitMix64::new(state), mask)
            }
        }
    }

    /// The page addresses the segment touches.
    fn pages(&self) -> impl Iterator<Item = u64> {
        let base = self.base();
        let len = match *self {
            Seg::Bytes(_, ref b) => b.len() as u64,
            Seg::Generated { pages, .. } => pages * PAGE,
        };
        let first = base / PAGE;
        let end = if len == 0 {
            first
        } else {
            (base + len - 1) / PAGE + 1
        };
        (first..end).map(|p| p * PAGE)
    }
}

/// Segments of core `core`: unaligned or page-aligned bases, lengths from a
/// handful of bytes (so several share a page) to three whole pages, and
/// maybe one generated segment of one or two pages in the core's own pair
/// of pages.
fn random_segments(rng: &mut Rng, core: u64, at_least_a_word: bool) -> Vec<Seg> {
    let mut segs: Vec<Seg> = (0..rng.range(1, 5))
        .map(|i| {
            let base = if rng.chance(0.5) {
                WINDOW + rng.below(8) * PAGE
            } else {
                WINDOW + rng.below(8 * PAGE)
            };
            let mut len = match rng.below(3) {
                0 => rng.below(33),
                1 => rng.below(PAGE) * rng.range(1, 4),
                _ => rng.range(0, 4) * PAGE,
            };
            if i == 0 && at_least_a_word {
                len = len.max(8);
            }
            Seg::Bytes(base, (0..len).map(|_| rng.next_u64() as u8).collect())
        })
        .collect();
    if rng.chance(0.75) {
        let generated = Seg::Generated {
            base: WINDOW + 2 * core * PAGE,
            pages: rng.range(1, 3),
            state: rng.next_u64(),
            mask: [0xff, 0x7f][rng.below(2) as usize],
        };
        // Anywhere but first: core 0 stores into its first segment.
        let at = rng.range(1, segs.len() as u64 + 1) as usize;
        segs.insert(at, generated);
    }
    segs
}

/// A program that stores `value` at `addr` (8 bytes) when given one, then
/// halts.
fn program(segments: &[Seg], store: Option<(u64, u64)>) -> Program {
    let mut asm = ProgramBuilder::new();
    if let Some((addr, value)) = store {
        asm.mov_imm64(Reg::X1, addr);
        asm.mov_imm64(Reg::X2, value);
        asm.str(Reg::X2, Reg::X1, 0);
    }
    asm.halt();
    for seg in segments {
        asm.segment(seg.segment());
    }
    asm.build().unwrap()
}

fn build(programs: &[Program]) -> System {
    let policy = || Box::new(NoPolicy) as Box<dyn MitigationPolicy>;
    let (cfg, mem) = (CoreConfig::tiny(), MemConfig::default());
    match programs {
        [one] => System::single_core(cfg, mem, one.clone(), policy()),
        _ => System::multi_core(
            cfg,
            mem,
            programs.iter().map(|p| (p.clone(), policy())).collect(),
        ),
    }
}

/// Every page the segments given as bytes touch, with the frame of the one
/// segment that touches it (`None` when several do, when that one is too
/// short to keep frames, or when a generated segment covers the page too),
/// in address order.
fn sole_frames(programs: &[Program]) -> BTreeMap<u64, Option<Page>> {
    let mut pages = BTreeMap::new();
    let segs = programs.iter().flat_map(|p| p.data().iter());
    let generated: Vec<&DataSegment> = segs.clone().filter(|s| s.is_generated()).collect();
    for seg in segs.filter(|s| !s.is_generated()) {
        for page in seg.pages() {
            let covered = generated
                .iter()
                .any(|g| (g.base()..g.base() + g.len() as u64).contains(&page.addr));
            pages
                .entry(page.addr)
                .and_modify(|sole| *sole = None)
                .or_insert_with(|| page.frame.filter(|_| !covered).cloned());
        }
    }
    pages
}

/// How many holders share each sole frame.
fn holders(pages: &BTreeMap<u64, Option<Page>>) -> BTreeMap<u64, usize> {
    pages
        .iter()
        .filter_map(|(&addr, sole)| Some((addr, Arc::strong_count(sole.as_ref()?))))
        .collect()
}

/// How many frames of each generated segment exist, in load order.
fn materialised(programs: &[Program]) -> Vec<usize> {
    let segs = programs.iter().flat_map(|p| p.data().iter());
    segs.filter(|s| s.is_generated())
        .map(|s| s.materialised())
        .collect()
}

fn assert_reads_like(sys: &System, reference: &MainMemory, pages: &BTreeSet<u64>) {
    for &addr in pages {
        let at = VirtAddr::new(addr);
        assert!(
            sys.mem().arch.read_bytes(at, PAGE_BYTES) == reference.read_bytes(at, PAGE_BYTES),
            "page {addr:#x} differs from the reference load"
        );
    }
}

#[test]
fn segments_load_exactly_and_share_frames_until_a_store() {
    check(
        "segments_load_exactly_and_share_frames_until_a_store",
        64,
        |rng| {
            let cores = rng.range(1, 5);
            let layouts: Vec<Vec<Seg>> = (0..cores)
                .map(|c| random_segments(rng, c, c == 0))
                .collect();
            // Core 0 stores a word inside its first segment.
            let Seg::Bytes(first_base, first_bytes) = &layouts[0][0] else {
                unreachable!("core 0's first segment holds bytes")
            };
            let store_at = first_base + rng.below(first_bytes.len() as u64 - 7);
            let value = rng.next_u64();
            let programs: Vec<Program> = layouts
                .iter()
                .enumerate()
                .map(|(c, segs)| program(segs, (c == 0).then_some((store_at, value))))
                .collect();

            let mut reference = MainMemory::new();
            for seg in layouts.iter().flatten() {
                reference.write_bytes(VirtAddr::new(seg.base()), &seg.bytes());
            }
            let touched: BTreeSet<u64> = layouts.iter().flatten().flat_map(Seg::pages).collect();
            let by_bytes: BTreeSet<u64> = layouts
                .iter()
                .flatten()
                .filter(|s| matches!(s, Seg::Bytes(..)))
                .flat_map(Seg::pages)
                .collect();
            let pages = sole_frames(&programs);
            // A sole frame is the same frame in the program and its clones.
            let clones: Vec<Program> = programs.iter().map(|p| p.with_nops(&[0])).collect();
            let clone_frames = sole_frames(&clones);
            for (&addr, sole) in &pages {
                let Some(frame) = sole else { continue };
                let cloned = clone_frames[&addr].as_ref().expect("same layout");
                assert!(
                    Arc::ptr_eq(cloned, frame),
                    "page {addr:#x} was copied by a clone"
                );
            }

            // Building a machine adds two holders to each sole frame, its
            // memory page and its base page: the load adopted it. It
            // computes only the generated frames that share a page with
            // bytes given up front, and holds only the pages bytes touch.
            let unbuilt = holders(&pages);
            let mut sys = build(&programs);
            let built = holders(&pages);
            for (addr, n) in &unbuilt {
                assert_eq!(built[addr], n + 2, "page {addr:#x} was copied on load");
            }
            let shared: Vec<usize> = layouts
                .iter()
                .flatten()
                .filter(|s| matches!(s, Seg::Generated { .. }))
                .map(|g| g.pages().filter(|p| by_bytes.contains(p)).count())
                .collect();
            assert_eq!(materialised(&programs), shared, "frames computed on load");
            assert_eq!(sys.mem().arch.resident_pages(), by_bytes.len());
            let sibling = build(&programs);
            assert_reads_like(&sys, &reference, &touched);
            assert_eq!(
                sys.mem().arch.resident_pages(),
                by_bytes.len(),
                "a read took a page"
            );

            // A store leaves the base page shared and copies only the
            // memory pages it writes.
            let before_run = holders(&pages);
            assert_eq!(sys.run(1_000_000).exit, RunExit::Halted);
            assert_eq!(sys.mem().arch.read(VirtAddr::new(store_at), 8), value);
            let written = [store_at / PAGE * PAGE, (store_at + 7) / PAGE * PAGE];
            for (addr, n) in holders(&pages) {
                assert_eq!(
                    before_run[&addr] - n,
                    usize::from(written.contains(&addr)),
                    "page {addr:#x}: only the stored-to pages are copies"
                );
            }
            let held: BTreeSet<u64> = by_bytes.iter().chain(&written).copied().collect();
            assert_eq!(sys.mem().arch.resident_pages(), held.len());
            for (p, segs) in programs.iter().zip(&layouts) {
                let now: Vec<Vec<u8>> = p.data().iter().map(|s| s.to_vec()).collect();
                let then: Vec<Vec<u8>> = segs.iter().map(Seg::bytes).collect();
                assert!(now == then, "the store reached the program's bytes");
            }
            assert_reads_like(&sibling, &reference, &touched);
        },
    );
}
