//! Hostile `mem` payloads reach the page-table decoder.
//!
//! A flipped byte in a snapshot file trips a section CRC before any payload
//! is decoded, so the decoder itself only meets hostile bytes that were
//! framed with a correct CRC. This property builds exactly those: it
//! mutates the memory-page table of a real machine's `mem` section (zero
//! and overflowing key deltas, page counts above and below the pages
//! stored, over-long varints, a payload cut short, stray flips), re-frames
//! the image through `SnapshotBuilder`, and restores it. The structural
//! mutations must be rejected; any rejection must be a structured error
//! that leaves the target byte-identical. Nothing may panic, and a restore
//! may allocate only a constant times the input beyond what restoring the
//! unmutated image costs. No case has found a crasher so far. The key and
//! count shapes are also pinned as named cases in `sas-mem`
//! (`hostile_page_keys_are_rejected_and_keep_the_old_image`,
//! `restore_of_a_huge_page_count_fails_as_truncated`).
//!
//! A failing case prints its seed; `SAS_PTEST_SEED=<seed>` replays it.

use sas_isa::{parse_program, Program};
use sas_pipeline::System;
use sas_ptest::{check, Rng};
use sas_snap::{Enc, SnapError, Snapshot, SnapshotBuilder};
use specasan::snapshot::{restore_system_checked, snapshot_system};
use specasan::{build_system, Mitigation, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

/// Counts the bytes each thread asks the allocator for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// thread-local counter neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { Heap.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const PAGE: usize = 4096;

/// Walks stores up four pages, two of them loaded from its data segments,
/// then stores to a fifth page. A mid-run image carries the pages stored
/// to so far and leaves the rest to the base.
fn writer() -> Program {
    parse_program(
        ".data 0x10000 = 7, 7, 7, 7\n\
         .data 0x13ff8 = 9\n\
         MOVZ X1, #60\nMOVZ X2, #1, LSL #16\n\
         loop:\nSTR X1, [X2]\nADD X2, X2, #0x100\n\
         SUB X1, X1, #1\nCBNZ X1, loop\n\
         MOVZ X3, #2, LSL #16\nSTR X1, [X3]\nHALT\n",
    )
    .unwrap()
}

fn build() -> System {
    build_system(&SimConfig::table2(), writer(), Mitigation::SpecAsan)
}

/// The `mem` section split at the memory-page table.
#[derive(Clone)]
struct MemPayload {
    /// The core-count varint before the table.
    head: Vec<u8>,
    /// The stored page keys, ascending.
    keys: Vec<u64>,
    pages: Vec<Vec<u8>>,
    /// Everything after the table: tags, caches, statistics.
    tail: Vec<u8>,
}

impl MemPayload {
    fn parse(payload: &[u8]) -> MemPayload {
        let mut d = sas_snap::Dec::new(payload, "mem");
        d.usz().unwrap();
        let head = payload[..payload.len() - d.remaining()].to_vec();
        let n = d.usz().unwrap();
        let (mut keys, mut pages, mut key) = (Vec::new(), Vec::new(), 0);
        for _ in 0..n {
            key += d.uv().unwrap();
            keys.push(key);
            pages.push(d.raw(PAGE).unwrap().to_vec());
        }
        let tail = d.raw(d.remaining()).unwrap().to_vec();
        MemPayload {
            head,
            keys,
            pages,
            tail,
        }
    }

    /// Re-encodes the table with `count` and the given raw `deltas` (one
    /// varint each, already encoded), one per page.
    fn encode(&self, count: u64, deltas: &[Vec<u8>]) -> Vec<u8> {
        let mut e = Enc::new();
        e.raw(&self.head);
        e.uv(count);
        for (delta, page) in deltas.iter().zip(&self.pages) {
            e.raw(delta);
            e.raw(page);
        }
        e.raw(&self.tail);
        e.into_bytes()
    }

    fn deltas(&self) -> Vec<u64> {
        let mut prev = 0;
        self.keys
            .iter()
            .map(|&k| k - std::mem::replace(&mut prev, k))
            .collect()
    }
}

fn varint(v: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.uv(v);
    e.into_bytes()
}

/// One hostile rewrite of the `mem` payload: its name for reports, the
/// bytes, and whether every decoder must reject it.
fn mutate(m: &MemPayload, rng: &mut Rng) -> (&'static str, Vec<u8>, bool) {
    let n = m.keys.len();
    let mut deltas: Vec<Vec<u8>> = m.deltas().into_iter().map(varint).collect();
    let at = rng.below(n as u64) as usize;
    match rng.below(9) {
        0 => {
            let at = 1 + rng.below(n as u64 - 1) as usize;
            deltas[at] = varint(0);
            ("zero key delta", m.encode(n as u64, &deltas), true)
        }
        1 => {
            deltas[at] = varint(u64::MAX - rng.below(1 << 20));
            ("overflowing key delta", m.encode(n as u64, &deltas), true)
        }
        2 => {
            deltas[at] = varint((1 << 44) + rng.below(1 << 40));
            (
                "key past the address space",
                m.encode(n as u64, &deltas),
                true,
            )
        }
        3 => {
            // Eleven varint bytes: more than any u64 needs.
            deltas[at] = [vec![0xFF; 10], vec![0x01]].concat();
            ("over-long delta varint", m.encode(n as u64, &deltas), true)
        }
        4 => {
            let count = n as u64 + 1 + rng.below(1 << 16);
            (
                "page count beyond the bytes left",
                m.encode(count, &deltas),
                true,
            )
        }
        5 => ("page count of 2^64 - 1", m.encode(u64::MAX, &deltas), true),
        6 => {
            let count = rng.below(n as u64);
            (
                "page count below the pages stored",
                m.encode(count, &deltas),
                false,
            )
        }
        7 => {
            let mut bytes = m.encode(n as u64, &deltas);
            let cut = rng.range(m.head.len() as u64, bytes.len() as u64) as usize;
            bytes.truncate(cut);
            ("payload cut short", bytes, true)
        }
        _ => {
            let mut bytes = m.encode(n as u64, &deltas);
            // Flip within the table's framing: the count and the first
            // page's key, where a flip changes structure, not data.
            let span = (m.head.len() + 8).min(bytes.len());
            let i = rng.below(span as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
            ("flipped table byte", bytes, false)
        }
    }
}

/// `snap` with its `mem` payload replaced, framed with correct CRCs.
fn reframe(snap: &Snapshot, mem: Vec<u8>) -> Snapshot {
    let mut b = SnapshotBuilder::new(snap.flags());
    for name in ["meta", "system", "mem", "cores"] {
        let mut e = Enc::new();
        if name == "mem" {
            e.raw(&mem);
        } else {
            let mut d = snap.section(name).unwrap();
            e.raw(d.raw(d.remaining()).unwrap());
        }
        b.section(name, e);
    }
    Snapshot::parse(b.to_bytes()).expect("a re-framed image parses")
}

fn image(sys: &System) -> Vec<u8> {
    snapshot_system(sys, false).to_bytes()
}

#[test]
fn hostile_mem_payloads_are_rejected_in_bounded_memory() {
    let mut from = build();
    from.run(150);
    let snap = Snapshot::parse(image(&from)).unwrap();
    let mem = {
        let mut d = snap.section("mem").unwrap();
        MemPayload::parse(d.raw(d.remaining()).unwrap())
    };
    assert!(
        mem.keys.len() >= 2,
        "{} pages: the table needs two to mutate",
        mem.keys.len()
    );

    check(
        "hostile_mem_payloads_are_rejected_in_bounded_memory",
        96,
        |rng| {
            let mut victim = build();
            victim.run(rng.range(0, 120));
            let before = image(&victim);
            let mut twin = victim.clone();
            let (clean, clean_bytes) = allocated_by(|| restore_system_checked(&mut twin, &snap));
            clean.expect("the unmutated image restores");

            let (what, payload, must_fail) = mutate(&mem, rng);
            let len = payload.len();
            let hostile = reframe(&snap, payload);
            let (result, bytes) = allocated_by(|| restore_system_checked(&mut victim, &hostile));
            let budget = clean_bytes + 4 * len;
            assert!(
                bytes <= budget,
                "{what}: allocated {bytes} bytes for a {len}-byte payload"
            );
            assert!(
                result.is_err() || !must_fail,
                "{what}: the restore accepted it"
            );
            if let Err(e) = result {
                assert!(
                    !matches!(e, SnapError::Io(_) | SnapError::BadSectionCrc { .. }),
                    "{what}: {e} is not a decode error"
                );
                assert!(
                    image(&victim) == before,
                    "{what}: the rejected restore ({e}) changed the target"
                );
            }
        },
    );
}
