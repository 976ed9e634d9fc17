//! Parsing a `.sasm` text costs memory in proportion to the text.
//!
//! A program of many one-byte `.data` lines is the worst case for a
//! segment that rounds up to whole pages: each line would cost a 4 KiB
//! frame, hundreds of times its text. The parse runs under a counting
//! allocator that records the peak of live heap bytes, for a 4 MiB text
//! (the largest request body `sas-serve` accepts) in three layouts. Lines
//! one page apart touch more pages than a program may hold
//! (`MAX_DATA_PAGES`), so that layout is refused, within the same bound.
//!
//! This file holds a single test: the allocator counts every thread of
//! the test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const TEXT_BYTES: usize = 4 << 20;

/// `HALT`, then one-byte `.data` lines `stride` bytes apart up to
/// `TEXT_BYTES`.
fn one_byte_lines(stride: u64) -> String {
    let mut text = String::from("HALT\n");
    for i in 0.. {
        let line = format!(".data {} = 7\n", 0x1000 + i * stride);
        if text.len() + line.len() > TEXT_BYTES {
            break;
        }
        text.push_str(&line);
    }
    text
}

#[test]
fn one_byte_data_lines_cost_a_few_times_their_text() {
    let layouts = [
        ("one address", 0),
        ("consecutive bytes", 1),
        ("one page each", 4096),
    ];
    for (name, stride) in layouts {
        let text = one_byte_lines(stride);
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let parsed = sas_isa::parse_program(&text);
        let peak = PEAK.load(Ordering::Relaxed) - before;
        let lines = text.lines().count() - 1;
        if stride == 4096 {
            let e = parsed.unwrap_err();
            assert_eq!(e.line, 2 + sas_isa::MAX_DATA_PAGES, "{name}");
            assert!(e.message.contains("4097 pages"), "{name}: {e}");
        } else {
            assert_eq!(parsed.unwrap().data().len(), lines, "{name}");
        }
        let ratio = peak as f64 / text.len() as f64;
        println!("{name}: {lines} lines, parse peak {ratio:.1}x the text");
        assert!(
            ratio < 8.0,
            "{name}: parsing {} text bytes peaked at {peak} heap bytes ({ratio:.1}x)",
            text.len()
        );
    }
}
