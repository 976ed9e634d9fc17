//! Allocation-free building blocks for the per-cycle hot loop.
//!
//! The original scheduler allocated a `Vec<(Reg, Option<u64>)>` per
//! dispatched micro-op (the source list) and walked the whole ROB for every
//! wakeup/commit query. The structures here remove that churn:
//!
//! - [`SrcList`] stores a micro-op's renamed sources inline (an instruction
//!   reads at most [`MAX_SRCS`] registers), so an [`crate::core::Core`]'s
//!   `InFlight` entry is heap-free and the ROB ring buffer never allocates
//!   in steady state.
//! - [`Slab`] is a free-list arena with generation-tagged handles
//!   ([`SlotRef`]). The core uses it for producer→consumer waiter chains:
//!   nodes survive squashes (consumers vanish from the ROB), so a handle
//!   must be able to detect that its slot was recycled — that is what the
//!   generation is for. For ROB entries themselves the monotonically
//!   increasing sequence number plays the generation role: sequence numbers
//!   are never reused, and the ROB is kept sorted by them, so `seq` +
//!   binary search is a generation-checked reference.

use sas_isa::Reg;

/// Maximum architectural sources of one instruction (`Inst::uses`).
pub const MAX_SRCS: usize = 3;

/// Inline list of renamed sources: `(register, producing seq)` pairs, where
/// `None` means the value comes from the committed register file.
#[derive(Debug, Clone, Copy)]
pub struct SrcList {
    entries: [(Reg, Option<u64>); MAX_SRCS],
    len: u8,
}

impl Default for SrcList {
    fn default() -> SrcList {
        SrcList::new()
    }
}

impl SrcList {
    /// An empty list.
    pub fn new() -> SrcList {
        SrcList { entries: [(Reg::XZR, None); MAX_SRCS], len: 0 }
    }

    /// Appends a source.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_SRCS`] entries — that would
    /// mean the ISA grew an instruction shape the scheduler cannot rename.
    pub fn push(&mut self, reg: Reg, producer: Option<u64>) {
        assert!((self.len as usize) < MAX_SRCS, "instruction with more than {MAX_SRCS} sources");
        self.entries[self.len as usize] = (reg, producer);
        self.len += 1;
    }

    /// The populated entries.
    pub fn iter(&self) -> impl Iterator<Item = &(Reg, Option<u64>)> {
        self.entries[..self.len as usize].iter()
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the instruction has no register sources.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for &'a SrcList {
    type Item = &'a (Reg, Option<u64>);
    type IntoIter = std::slice::Iter<'a, (Reg, Option<u64>)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries[..self.len as usize].iter()
    }
}

/// Generation-tagged handle into a [`Slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRef {
    slot: u32,
    gen: u32,
}

#[derive(Debug, Clone)]
struct Slot<T> {
    gen: u32,
    state: SlotState<T>,
}

#[derive(Debug, Clone)]
enum SlotState<T> {
    Occupied(T),
    /// Free; holds the next free slot index (a plain index — free-list
    /// links never leave the slab, so they need no generation).
    Free(Option<u32>),
}

/// A free-list slab allocator with generational indices.
///
/// `insert` returns a [`SlotRef`] whose generation must match for `get` /
/// `remove` to succeed; a recycled slot bumps the generation, so stale
/// handles read as dead instead of aliasing the new occupant.
///
/// ```
/// use sas_pipeline::arena::Slab;
///
/// let mut s: Slab<u32> = Slab::new();
/// let a = s.insert(7);
/// assert_eq!(s.get(a), Some(&7));
/// assert_eq!(s.remove(a), Some(7));
/// assert_eq!(s.get(a), None);       // stale handle
/// let b = s.insert(9);              // recycles the slot...
/// assert_eq!(s.get(a), None);       // ...but the old handle stays dead
/// assert_eq!(s.get(b), Some(&9));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    live: usize,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab { slots: Vec::new(), free_head: None, live: 0 }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a value, reusing a free slot when one exists.
    pub fn insert(&mut self, value: T) -> SlotRef {
        self.live += 1;
        match self.free_head {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                let SlotState::Free(next) = s.state else {
                    unreachable!("free list points at an occupied slot");
                };
                self.free_head = next;
                s.state = SlotState::Occupied(value);
                SlotRef { slot, gen: s.gen }
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, state: SlotState::Occupied(value) });
                SlotRef { slot, gen: 0 }
            }
        }
    }

    /// The value behind `r`, unless the slot was freed or recycled.
    pub fn get(&self, r: SlotRef) -> Option<&T> {
        match self.slots.get(r.slot as usize) {
            Some(Slot { gen, state: SlotState::Occupied(v) }) if *gen == r.gen => Some(v),
            _ => None,
        }
    }

    /// Removes and returns the value behind `r`; stale handles return
    /// `None` and change nothing.
    pub fn remove(&mut self, r: SlotRef) -> Option<T> {
        let s = self.slots.get_mut(r.slot as usize)?;
        if s.gen != r.gen || matches!(s.state, SlotState::Free(_)) {
            return None;
        }
        // Bump the generation on free, so handles minted for the old
        // occupant can never observe a recycled slot.
        s.gen = s.gen.wrapping_add(1);
        let state = std::mem::replace(&mut s.state, SlotState::Free(self.free_head));
        self.free_head = Some(r.slot);
        self.live -= 1;
        match state {
            SlotState::Occupied(v) => Some(v),
            SlotState::Free(_) => unreachable!("checked occupied above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srclist_inline_and_ordered() {
        let mut s = SrcList::new();
        assert!(s.is_empty());
        s.push(Reg::X1, Some(4));
        s.push(Reg::X2, None);
        assert_eq!(s.len(), 2);
        let got: Vec<_> = s.iter().copied().collect();
        assert_eq!(got, vec![(Reg::X1, Some(4)), (Reg::X2, None)]);
    }

    #[test]
    #[should_panic(expected = "more than")]
    fn srclist_overflow_panics() {
        let mut s = SrcList::new();
        for _ in 0..=MAX_SRCS {
            s.push(Reg::X1, None);
        }
    }

    #[test]
    fn slab_recycles_slots_with_fresh_generations() {
        let mut s: Slab<&'static str> = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None); // double-free is a no-op
        let c = s.insert("c"); // reuses slot of `a`
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(c), Some(&"c"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn slab_free_list_is_lifo_and_exhaustive() {
        let mut s: Slab<u64> = Slab::new();
        let handles: Vec<_> = (0..16).map(|i| s.insert(i)).collect();
        for h in &handles {
            assert!(s.remove(*h).is_some());
        }
        assert!(s.is_empty());
        // Reinserting reuses all 16 slots before growing.
        for i in 0..16u64 {
            s.insert(i);
        }
        assert_eq!(s.len(), 16);
    }
}
