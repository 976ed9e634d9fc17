//! Loading data segments into a machine's memory.
//!
//! Random programs (one to four cores, segments at unaligned bases, 0 to 3
//! pages long, several often inside one page, overlapping across cores)
//! are built into a `System` and checked against a bytewise reference
//! load through `MainMemory::write_bytes` in core order. A page only one
//! segment of a page or more touches is that segment's frame, shared by
//! pointer with every clone of the program and adopted by the machine's
//! memory, and a simulated store copies only the page it writes.

use sas_isa::{Page, Program, ProgramBuilder, Reg, VirtAddr, PAGE_BYTES};
use sas_mem::{MainMemory, MemConfig};
use sas_pipeline::{CoreConfig, MitigationPolicy, NoPolicy, RunExit, System};
use sas_ptest::{check, Rng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Start of the four pages every segment falls in.
const WINDOW: u64 = 0x10_0000;
const PAGE: u64 = PAGE_BYTES as u64;

/// `(base, bytes)` pairs: unaligned or page-aligned bases, lengths from a
/// handful of bytes (so several share a page) to three whole pages.
fn random_segments(rng: &mut Rng, at_least_a_word: bool) -> Vec<(u64, Vec<u8>)> {
    (0..rng.range(1, 5))
        .map(|i| {
            let base = if rng.chance(0.5) {
                WINDOW + rng.below(4) * PAGE
            } else {
                WINDOW + rng.below(4 * PAGE)
            };
            let mut len = match rng.below(3) {
                0 => rng.below(33),
                1 => rng.below(PAGE) * rng.range(1, 4),
                _ => rng.range(0, 4) * PAGE,
            };
            if i == 0 && at_least_a_word {
                len = len.max(8);
            }
            (base, (0..len).map(|_| rng.next_u64() as u8).collect())
        })
        .collect()
}

/// A program that stores `value` at `addr` (8 bytes) when given one, then
/// halts.
fn program(segments: &[(u64, Vec<u8>)], store: Option<(u64, u64)>) -> Program {
    let mut asm = ProgramBuilder::new();
    if let Some((addr, value)) = store {
        asm.mov_imm64(Reg::X1, addr);
        asm.mov_imm64(Reg::X2, value);
        asm.str(Reg::X2, Reg::X1, 0);
    }
    asm.halt();
    for (base, bytes) in segments {
        asm.data_segment(*base, bytes.clone());
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

/// Every page the segments touch, with the frame of the one segment that
/// touches it (`None` when several do, or when that one is too short to
/// keep frames), in address order.
fn sole_frames(programs: &[Program]) -> BTreeMap<u64, Option<Page>> {
    let mut pages = BTreeMap::new();
    for seg in programs.iter().flat_map(|p| p.data().iter()) {
        for page in seg.pages() {
            pages
                .entry(page.addr)
                .and_modify(|sole| *sole = None)
                .or_insert_with(|| page.frame.cloned());
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

fn assert_reads_like(sys: &System, reference: &MainMemory, pages: &BTreeMap<u64, Option<Page>>) {
    assert_eq!(sys.mem().arch.resident_pages(), reference.resident_pages());
    for &addr in pages.keys() {
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
            let cores = rng.range(1, 5) as usize;
            let layouts: Vec<Vec<(u64, Vec<u8>)>> =
                (0..cores).map(|c| random_segments(rng, c == 0)).collect();
            // Core 0 stores a word inside its first segment.
            let (first_base, first_bytes) = &layouts[0][0];
            let store_at = first_base + rng.below(first_bytes.len() as u64 - 7);
            let value = rng.next_u64();
            let programs: Vec<Program> = layouts
                .iter()
                .enumerate()
                .map(|(c, segs)| program(segs, (c == 0).then_some((store_at, value))))
                .collect();

            let mut reference = MainMemory::new();
            for (base, bytes) in layouts.iter().flatten() {
                reference.write_bytes(VirtAddr::new(*base), bytes);
            }
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
            // memory page and its base page: the load adopted it.
            let unbuilt = holders(&pages);
            let mut sys = build(&programs);
            let built = holders(&pages);
            for (addr, n) in &unbuilt {
                assert_eq!(built[addr], n + 2, "page {addr:#x} was copied on load");
            }
            let sibling = build(&programs);
            assert_reads_like(&sys, &reference, &pages);

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
            for (p, segs) in programs.iter().zip(&layouts) {
                let now: Vec<Vec<u8>> = p.data().iter().map(|s| s.to_vec()).collect();
                let then: Vec<&Vec<u8>> = segs.iter().map(|(_, b)| b).collect();
                assert!(now.iter().eq(then), "the store reached the program's bytes");
            }
            assert_reads_like(&sibling, &reference, &pages);
        },
    );
}
