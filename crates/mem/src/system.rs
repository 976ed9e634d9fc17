//! The multi-core memory system facade.
//!
//! [`MemSystem`] wires together the per-core L1 data caches and line-fill
//! buffers, the shared L2, the MSHR files and the DRAM controller, and adds:
//!
//! * **coherence** — stores invalidate remote L1/LFB copies; tag-maintenance
//!   operations (`STG`) update cached locks everywhere (§3.3.1/§3.3.3);
//! * **the fill-policy hook** — every timed access carries a [`FillMode`]
//!   chosen by the active mitigation, which decides whether a tag-mismatching
//!   speculative access may leave *any* microarchitectural trace;
//! * **ghost buffers** — the shadow fill structure used to model the
//!   GhostMinion baseline;
//! * **the MDS quirk** — an Intel-like option where a faulting load is
//!   forwarded stale in-flight data from the LFB, which RIDL/ZombieLoad
//!   sample and which SpecASan's tagged LFB blocks.

use crate::arch_mem::MainMemory;
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::controller::{DramConfig, DramController};
use crate::err::SimError;
use crate::lfb::LineFillBuffer;
use crate::mshr::{MshrEntry, MshrFile};
use crate::prefetch::{PrefetchConfig, StridePrefetcher};
use crate::req::{FillMode, LoadResult, ServicePoint, StoreResult};
use sas_isa::{TagNibble, VirtAddr, LINE_BYTES};
use sas_mte::{TagCheckOutcome, TagStorage};
use sas_ptest::{FaultPlan, FaultStream, InjectionPoint};

/// Extra fill latency modelling a *dropped* response: far beyond any
/// realistic run budget, so the waiting uop never completes and the
/// pipeline's deadlock detector must trip and produce a crash dump.
const DROPPED_FILL_STALL: u64 = 50_000_000;

/// Room [`MemSystem::encode`] reserves for what follows the page images:
/// caches, buffers, prefetchers and statistics, about 185 KB for the
/// four-core canneal machine. A larger tail only costs one doubling copy.
const ENCODED_TAIL_BYTES: usize = 1 << 20;

/// Armed fault-injection streams for the memory side of a [`FaultPlan`].
#[derive(Debug, Clone)]
struct MemFaults {
    tag_flip: FaultStream,
    arch_flip: FaultStream,
    mshr_drop: FaultStream,
    fill_delay: FaultStream,
    /// Lines whose fill was dropped: every later miss on them stalls too
    /// (the MSHR entry is poisoned), so the fault cannot hide behind a
    /// squashed wrong-path access — the next committed-path touch deadlocks.
    dead_lines: Vec<u64>,
}

impl MemFaults {
    fn corruptions(&self) -> u64 {
        self.tag_flip.injected() + self.arch_flip.injected() + self.mshr_drop.injected()
    }

    fn total(&self) -> u64 {
        self.corruptions() + self.fill_delay.injected()
    }
}

/// Configuration of the whole memory system (Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Shared L2.
    pub l2: CacheConfig,
    /// Line-fill buffer entries per core (Table 2: 16).
    pub lfb_entries: usize,
    /// LFB forwarding latency (Table 2: 2 cycles).
    pub lfb_hit_latency: u64,
    /// L1 MSHR registers per core.
    pub l1_mshrs: usize,
    /// L2 MSHR registers (shared).
    pub l2_mshrs: usize,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Intel-like microarchitectural quirk: a faulting load is forwarded
    /// stale in-flight data from the LFB instead of stalling. `true` models
    /// the MDS-vulnerable baseline; SpecASan's tagged LFB check governs
    /// whether the forward is permitted.
    pub lfb_forwards_stale: bool,
    /// Meltdown-style deferred permission check: a faulting load whose line
    /// is L1-resident receives the *real* data transiently; the fault is
    /// raised only at retirement. The tag check still applies, so SpecASan
    /// suppresses the forward for tagged victims.
    pub meltdown_forwarding: bool,
    /// Ghost (shadow fill) buffer entries per core, for the GhostMinion
    /// baseline.
    pub ghost_entries: usize,
    /// Hardware prefetcher (§6 extension; off in the Table 2 machine).
    pub prefetch: PrefetchConfig,
    /// §3.3.4 design option: DRAM responses to tagged requests carry the
    /// line's allocation tags, so later requests to the same line skip the
    /// tag-storage fetch. Only observable when the tag fetch is serialized.
    pub tag_hint_responses: bool,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            lfb_entries: 16,
            lfb_hit_latency: 2,
            l1_mshrs: 8,
            l2_mshrs: 16,
            dram: DramConfig::default(),
            lfb_forwards_stale: true,
            meltdown_forwarding: true,
            ghost_entries: 32,
            prefetch: PrefetchConfig::default(),
            tag_hint_responses: false,
        }
    }
}

/// Aggregated statistics across the hierarchy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemSystemStats {
    /// Per-core L1 stats.
    pub l1d: Vec<CacheStats>,
    /// Shared L2 stats.
    pub l2: CacheStats,
    /// Fills that were suppressed because of an unsafe outcome under
    /// [`FillMode::SuppressIfUnsafe`].
    pub suppressed_fills: u64,
    /// Loads answered with stale LFB data (MDS exposure events).
    pub stale_forwards: u64,
    /// Stale forwards blocked by the LFB tag check.
    pub stale_forwards_blocked: u64,
    /// Ghost-buffer fills (GhostMinion).
    pub ghost_fills: u64,
    /// Ghost lines promoted to L1 at commit.
    pub ghost_promotions: u64,
    /// Ghost lines dropped on squash.
    pub ghost_drops: u64,
    /// Tag-maintenance lock updates applied to caches/LFBs.
    pub lock_maintenance_updates: u64,
    /// Coherence invalidations sent to remote cores.
    pub coherence_invalidations: u64,
    /// Prefetches issued into the hierarchy.
    pub prefetches_issued: u64,
    /// Prefetches suppressed by the secure tag check.
    pub prefetches_suppressed: u64,
    /// Tag-storage fetches skipped thanks to tag-hint responses.
    pub tag_hint_hits: u64,
}

#[derive(Debug, Clone, Copy)]
struct GhostEntry {
    line_addr: u64,
    locks: [TagNibble; 4],
}

#[derive(Debug, Clone)]
struct GhostBuffer {
    cap: usize,
    entries: Vec<GhostEntry>,
}

impl GhostBuffer {
    fn new(cap: usize) -> GhostBuffer {
        GhostBuffer { cap, entries: Vec::new() }
    }

    fn find(&self, line_addr: u64) -> Option<&GhostEntry> {
        self.entries.iter().find(|e| e.line_addr == line_addr)
    }

    fn insert(&mut self, e: GhostEntry) {
        if self.entries.iter().any(|x| x.line_addr == e.line_addr) {
            return;
        }
        if self.entries.len() >= self.cap && !self.entries.is_empty() {
            self.entries.remove(0); // FIFO
        }
        if self.cap > 0 {
            self.entries.push(e);
        }
    }

    fn take(&mut self, line_addr: u64) -> Option<GhostEntry> {
        let i = self.entries.iter().position(|e| e.line_addr == line_addr)?;
        Some(self.entries.remove(i))
    }
}

/// The memory system: architectural state + the timed, tagged hierarchy.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemConfig,
    cores: usize,
    /// Architectural bytes.
    pub arch: MainMemory,
    /// Architectural allocation tags.
    pub tags: TagStorage,
    l1d: Vec<Cache>,
    lfb: Vec<LineFillBuffer>,
    l1_mshr: Vec<MshrFile>,
    l2: Cache,
    l2_mshr: MshrFile,
    dram: DramController,
    ghosts: Vec<GhostBuffer>,
    prefetchers: Vec<StridePrefetcher>,
    tag_hints: std::collections::VecDeque<(u64, [TagNibble; 4])>,
    protected: Vec<(u64, u64)>, // [base, base+len) unprivileged-fault ranges
    faults: Option<MemFaults>,
    stats: MemSystemStats,
}

impl MemSystem {
    /// Creates a system with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize, cfg: MemConfig) -> MemSystem {
        assert!(cores > 0, "need at least one core");
        MemSystem {
            cores,
            arch: MainMemory::new(),
            tags: TagStorage::new(),
            l1d: (0..cores).map(|_| Cache::new(cfg.l1d)).collect(),
            lfb: (0..cores)
                .map(|_| LineFillBuffer::new(cfg.lfb_entries, cfg.lfb_hit_latency))
                .collect(),
            l1_mshr: (0..cores).map(|_| MshrFile::named(cfg.l1_mshrs, "l1")).collect(),
            l2: Cache::new(cfg.l2),
            l2_mshr: MshrFile::named(cfg.l2_mshrs, "l2"),
            dram: DramController::new(cfg.dram),
            ghosts: (0..cores).map(|_| GhostBuffer::new(cfg.ghost_entries)).collect(),
            prefetchers: (0..cores).map(|_| StridePrefetcher::new(cfg.prefetch)).collect(),
            tag_hints: std::collections::VecDeque::new(),
            protected: Vec::new(),
            faults: None,
            stats: MemSystemStats { l1d: vec![CacheStats::default(); cores], ..Default::default() },
            cfg,
        }
    }

    /// Arms the memory-side injection points of `plan`: tag-nibble flips in
    /// the tag carve-out, architectural bit flips in the target window, and
    /// dropped or delayed fills on the miss path. Candidate events are timed
    /// load accesses, so the schedule is a pure function of the plan seed
    /// and the access stream.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.faults = Some(MemFaults {
            tag_flip: plan.stream(InjectionPoint::TagFlip),
            arch_flip: plan.stream(InjectionPoint::ArchBitFlip),
            mshr_drop: plan.stream(InjectionPoint::MshrDropFill),
            fill_delay: plan.stream(InjectionPoint::FillDelay),
            dead_lines: Vec::new(),
        });
    }

    /// Total memory-side injections performed so far (all points).
    pub fn fault_injections(&self) -> u64 {
        self.faults.as_ref().map_or(0, MemFaults::total)
    }

    /// Corruption-class injections (tag flips, architectural bit flips,
    /// dropped fills) — the ones a detector is *required* to catch.
    pub fn corruption_injections(&self) -> u64 {
        self.faults.as_ref().map_or(0, MemFaults::corruptions)
    }

    /// Applies at most one pending state corruption per candidate event.
    fn inject_corruption(&mut self) {
        let Some(f) = &mut self.faults else { return };
        if f.tag_flip.fires() {
            let a = VirtAddr::new(f.tag_flip.pick_in_window(16));
            let bit = f.tag_flip.pick_below(4) as u8;
            self.tags.flip_granule_bit(a, bit);
        }
        if f.arch_flip.fires() {
            let a = VirtAddr::new(f.arch_flip.pick_in_window(8));
            let bit = f.arch_flip.pick_below(64) as u32;
            let v = self.arch.read(a, 8) ^ (1u64 << bit);
            self.arch.write(a, 8, v);
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Marks `[base, base+len)` as privileged: unprivileged loads to it
    /// fault (the Meltdown/MDS victim region).
    pub fn add_protected_range(&mut self, base: u64, len: u64) {
        self.protected.push((base, base + len));
    }

    /// Whether an unprivileged access to `addr` faults.
    pub fn is_protected(&self, addr: VirtAddr) -> bool {
        let a = addr.untagged().raw();
        self.protected.iter().any(|&(lo, hi)| a >= lo && a < hi)
    }

    fn line_data_snapshot(&self, addr: VirtAddr) -> [u8; LINE_BYTES as usize] {
        let mut out = [0u8; LINE_BYTES as usize];
        self.arch.read_slice(addr.line_base(), &mut out);
        out
    }

    fn check_locks(locks: &[TagNibble; 4], addr: VirtAddr, width: u64) -> TagCheckOutcome {
        let key = addr.key();
        if key == TagNibble::ZERO {
            return TagCheckOutcome::Unchecked;
        }
        let width = width.max(1);
        let first = addr.granule_in_line();
        let last_addr = addr.offset(width as i64 - 1);
        let last = if last_addr.line_base() == addr.line_base() {
            last_addr.granule_in_line()
        } else {
            3 // access runs to the end of the line; remainder approximated
        };
        if locks[first..=last].iter().any(|&lock| lock != key) {
            return TagCheckOutcome::Unsafe;
        }
        TagCheckOutcome::Safe
    }

    /// Observes a demand miss, issuing (and possibly security-filtering)
    /// prefetches.
    fn trigger_prefetch(&mut self, core: usize, addr: VirtAddr, cycle: u64) {
        if !self.cfg.prefetch.enabled {
            return;
        }
        for req in self.prefetchers[core].on_miss(addr) {
            if self.l2.probe(req.line).is_some() || self.l1d[core].probe(req.line).is_some() {
                continue; // already resident
            }
            let locks = self.tags.line_locks(req.line);
            if !self.prefetchers[core].admits(req.trigger_key, &locks) {
                self.stats.prefetches_suppressed += 1;
                continue;
            }
            self.stats.prefetches_issued += 1;
            // Prefetches land in the shared L2 after a DRAM round trip; the
            // simple timing model installs immediately (the demand stream
            // that follows is what the latency numbers measure).
            self.l2.install(req.line, locks, cycle, false);
        }
    }

    /// Consults / updates the §3.3.4 tag-hint store. Returns `true` when a
    /// tagged request may skip the tag-storage fetch.
    fn tag_hint_lookup(&mut self, addr: VirtAddr) -> Option<[TagNibble; 4]> {
        if !self.cfg.tag_hint_responses {
            return None;
        }
        let la = addr.line_base().raw();
        self.tag_hints.iter().find(|(l, _)| *l == la).map(|&(_, locks)| locks)
    }

    fn tag_hint_insert(&mut self, addr: VirtAddr, locks: [TagNibble; 4]) {
        if !self.cfg.tag_hint_responses {
            return;
        }
        let la = addr.line_base().raw();
        if self.tag_hints.iter().any(|(l, _)| *l == la) {
            return;
        }
        if self.tag_hints.len() >= 1024 {
            self.tag_hints.pop_front();
        }
        self.tag_hints.push_back((la, locks));
    }

    /// Completes any LFB fills that are ready and installs them in the L1.
    pub fn settle(&mut self, core: usize, cycle: u64) {
        for e in self.lfb[core].drain_ready(cycle) {
            self.l1d[core].install(VirtAddr::new(e.line_addr), e.locks, cycle, false);
        }
        self.l1_mshr[core].settle(cycle);
        self.l2_mshr.settle(cycle);
    }

    /// A timed load access.
    ///
    /// `faulting` marks a load that architecturally faults (unprivileged
    /// access to a protected range); with the MDS quirk enabled such a load
    /// samples stale LFB data instead of its own line.
    ///
    /// # Errors
    ///
    /// A [`SimError`] when an internal invariant of the hierarchy breaks
    /// (corrupted MSHR bookkeeping, out-of-line LFB forward). The caller
    /// surfaces it through `RunExit::Error` instead of panicking.
    pub fn load(
        &mut self,
        core: usize,
        addr: VirtAddr,
        width: u64,
        cycle: u64,
        mode: FillMode,
        faulting: bool,
    ) -> Result<LoadResult, SimError> {
        // Fault injection: corruption first (so this very access can observe
        // it), then fill perturbation on the result.
        self.inject_corruption();
        let mut r = self.load_inner(core, addr, width, cycle, mode, faulting)?;
        if let Some(f) = &mut self.faults {
            let la = addr.untagged().raw() & !(LINE_BYTES - 1);
            if f.dead_lines.contains(&la) {
                // The line's fill was dropped earlier; it never arrives.
                r.latency = r.latency.saturating_add(DROPPED_FILL_STALL);
            } else if matches!(r.source, ServicePoint::L2 | ServicePoint::Dram) {
                if f.mshr_drop.fires() {
                    f.dead_lines.push(la);
                    r.latency = r.latency.saturating_add(DROPPED_FILL_STALL);
                } else if f.fill_delay.fires() {
                    r.latency += 16 + f.fill_delay.pick_below(512);
                }
            }
        }
        Ok(r)
    }

    fn load_inner(
        &mut self,
        core: usize,
        addr: VirtAddr,
        width: u64,
        cycle: u64,
        mode: FillMode,
        faulting: bool,
    ) -> Result<LoadResult, SimError> {
        self.settle(core, cycle);

        // --- Meltdown path: the permission check is deferred; an
        // L1-resident line is forwarded for real, subject to the tag check.
        if faulting && self.cfg.meltdown_forwarding {
            if let Some(hit) = self.l1d[core].probe(addr) {
                // Forwarding to an access that already failed its permission
                // check demands a *strict* key/lock match (key 0 only
                // matches untagged data), exactly like the LFB rule below.
                let g = addr.granule_in_line();
                let outcome = if hit.locks[g] == addr.key() {
                    Self::check_locks(&hit.locks, addr, width)
                } else {
                    TagCheckOutcome::Unsafe
                };
                let suppressed =
                    mode == FillMode::SuppressIfUnsafe && outcome == TagCheckOutcome::Unsafe;
                if suppressed {
                    self.stats.suppressed_fills += 1;
                }
                return Ok(LoadResult {
                    latency: self.cfg.l1d.hit_latency,
                    outcome,
                    source: ServicePoint::L1,
                    data_returned: !suppressed,
                    stale_lfb_data: None,
                });
            }
        }

        // --- MDS path: faulting loads sample the LFB, not memory. ---------
        if faulting && self.cfg.lfb_forwards_stale {
            if let Some(stale) = self.lfb[core].stale_candidate(addr) {
                // SpecASan's LFB check: forwarding out of the buffer demands
                // an exact key/lock match on the sampled granule.
                let g = addr.granule_in_line();
                let permitted = stale.locks[g] == addr.key();
                let outcome =
                    if permitted { TagCheckOutcome::Safe } else { TagCheckOutcome::Unsafe };
                let suppressed = mode == FillMode::SuppressIfUnsafe && !permitted;
                if suppressed {
                    self.stats.stale_forwards_blocked += 1;
                } else {
                    self.stats.stale_forwards += 1;
                }
                let off = (addr.untagged().raw() % LINE_BYTES) as usize;
                let w = (width.max(1) as usize).min(LINE_BYTES as usize - off);
                return Ok(LoadResult {
                    latency: self.lfb[core].hit_latency(),
                    outcome,
                    source: ServicePoint::Lfb,
                    data_returned: !suppressed,
                    stale_lfb_data: if suppressed { None } else { Some(stale.read(off, w)?) },
                });
            }
            // No in-flight line to sample: the load returns nothing useful.
            return Ok(LoadResult {
                latency: self.lfb[core].hit_latency(),
                outcome: TagCheckOutcome::Unchecked,
                source: ServicePoint::Lfb,
                data_returned: false,
                stale_lfb_data: None,
            });
        }

        // --- L1 hit ---------------------------------------------------------
        if let Some(hit) = self.l1d[core].probe(addr) {
            let outcome = Self::check_locks(&hit.locks, addr, width);
            if outcome == TagCheckOutcome::Unsafe {
                if self.l1d[core].config().tagged {
                    // account the check
                    let _ = self.l1d[core].tag_check(addr);
                }
                if mode == FillMode::SuppressIfUnsafe {
                    self.stats.suppressed_fills += 1;
                    self.stats.l1d[core].hits += 1;
                    return Ok(LoadResult {
                        latency: self.cfg.l1d.hit_latency,
                        outcome,
                        source: ServicePoint::L1,
                        data_returned: false,
                        stale_lfb_data: None,
                    });
                }
            } else if self.l1d[core].config().tagged {
                let _ = self.l1d[core].tag_check(addr);
            }
            self.stats.l1d[core].hits += 1;
            if mode != FillMode::Ghost {
                self.l1d[core].touch(addr);
            }
            return Ok(LoadResult {
                latency: self.cfg.l1d.hit_latency,
                outcome,
                source: ServicePoint::L1,
                data_returned: true,
                stale_lfb_data: None,
            });
        }

        // --- LFB hit (line in transit) ---------------------------------------
        if let Some(e) = self.lfb[core].find(addr) {
            let locks = e.locks;
            let wait = e.fills_at.saturating_sub(cycle);
            let outcome = Self::check_locks(&locks, addr, width);
            let latency = wait + self.lfb[core].hit_latency();
            self.stats.l1d[core].hits += 1;
            let data_returned =
                !(mode == FillMode::SuppressIfUnsafe && outcome == TagCheckOutcome::Unsafe);
            if !data_returned {
                self.stats.suppressed_fills += 1;
            }
            return Ok(LoadResult {
                latency,
                outcome,
                source: ServicePoint::Lfb,
                data_returned,
                stale_lfb_data: None,
            });
        }

        // --- Ghost hit (GhostMinion only) -------------------------------------
        if mode == FillMode::Ghost {
            if let Some(g) = self.ghosts[core].find(addr.line_base().raw()) {
                let outcome = Self::check_locks(&g.locks, addr, width);
                self.stats.l1d[core].hits += 1;
                return Ok(LoadResult {
                    latency: self.cfg.l1d.hit_latency + 1,
                    outcome,
                    source: ServicePoint::Ghost,
                    data_returned: true,
                    stale_lfb_data: None,
                });
            }
        }

        self.stats.l1d[core].misses += 1;

        // --- L2 hit ------------------------------------------------------------
        if let Some(hit) = self.l2.probe(addr) {
            let outcome = Self::check_locks(&hit.locks, addr, width);
            let latency = self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency;
            self.stats.l2.hits += 1;
            if mode == FillMode::SuppressIfUnsafe && outcome == TagCheckOutcome::Unsafe {
                self.stats.suppressed_fills += 1;
                return Ok(LoadResult {
                    latency,
                    outcome,
                    source: ServicePoint::L2,
                    data_returned: false,
                    stale_lfb_data: None,
                });
            }
            if self.l2.config().tagged {
                let _ = self.l2.tag_check(addr);
            }
            match mode {
                FillMode::Ghost => {
                    self.stats.ghost_fills += 1;
                    self.ghosts[core].insert(GhostEntry {
                        line_addr: addr.line_base().raw(),
                        locks: hit.locks,
                    });
                }
                _ => {
                    self.l2.touch(addr);
                    let data = self.line_data_snapshot(addr);
                    let mshr_delay = self.l1_mshr[core].allocate(addr, cycle, latency, outcome)?;
                    self.lfb[core].allocate(
                        addr,
                        cycle,
                        cycle + latency + mshr_delay,
                        hit.locks,
                        data,
                    );
                    self.trigger_prefetch(core, addr, cycle);
                    return Ok(LoadResult {
                        latency: latency + mshr_delay,
                        outcome,
                        source: ServicePoint::L2,
                        data_returned: true,
                        stale_lfb_data: None,
                    });
                }
            }
            return Ok(LoadResult {
                latency,
                outcome,
                source: ServicePoint::L2,
                data_returned: true,
                stale_lfb_data: None,
            });
        }
        self.stats.l2.misses += 1;

        // --- DRAM ----------------------------------------------------------------
        let hint = self.tag_hint_lookup(addr);
        let resp = {
            let mut r = self.dram.access(&mut self.tags, addr, width);
            if let Some(locks) = hint {
                if addr.key() != TagNibble::ZERO {
                    // §3.3.4: the earlier response carried the line's tags;
                    // no tag-storage fetch is needed this time.
                    self.stats.tag_hint_hits += 1;
                    r.latency = self.cfg.dram.data_latency;
                    r.outcome = Self::check_locks(&locks, addr, width);
                }
            } else if addr.key() != TagNibble::ZERO {
                self.tag_hint_insert(addr, r.line_locks);
            }
            r
        };
        let path_latency = self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency + resp.latency;
        if mode == FillMode::SuppressIfUnsafe && resp.outcome == TagCheckOutcome::Unsafe {
            // §3.3.4: the data is not returned to the upper memory levels —
            // no L2 fill, no LFB allocation, no L1 fill.
            self.stats.suppressed_fills += 1;
            return Ok(LoadResult {
                latency: path_latency,
                outcome: resp.outcome,
                source: ServicePoint::Dram,
                data_returned: false,
                stale_lfb_data: None,
            });
        }
        match mode {
            FillMode::Ghost => {
                self.stats.ghost_fills += 1;
                self.ghosts[core].insert(GhostEntry {
                    line_addr: addr.line_base().raw(),
                    locks: resp.line_locks,
                });
                Ok(LoadResult {
                    latency: path_latency,
                    outcome: resp.outcome,
                    source: ServicePoint::Dram,
                    data_returned: true,
                    stale_lfb_data: None,
                })
            }
            _ => {
                let l2_delay = self.l2_mshr.allocate(addr, cycle, path_latency, resp.outcome)?;
                let l1_delay =
                    self.l1_mshr[core].allocate(addr, cycle, path_latency + l2_delay, resp.outcome)?;
                let total = path_latency + l2_delay + l1_delay;
                self.l2.install(addr, resp.line_locks, cycle + total, false);
                let data = self.line_data_snapshot(addr);
                self.lfb[core].allocate(addr, cycle, cycle + total, resp.line_locks, data);
                self.trigger_prefetch(core, addr, cycle);
                Ok(LoadResult {
                    latency: total,
                    outcome: resp.outcome,
                    source: ServicePoint::Dram,
                    data_returned: true,
                    stale_lfb_data: None,
                })
            }
        }
    }

    /// A timed store (request for ownership). Invalidation-based coherence:
    /// remote L1/LFB copies of the line are dropped.
    ///
    /// # Errors
    ///
    /// A [`SimError`] when the hierarchy's bookkeeping breaks (see
    /// [`MemSystem::load`]).
    pub fn store(
        &mut self,
        core: usize,
        addr: VirtAddr,
        width: u64,
        cycle: u64,
        mode: FillMode,
    ) -> Result<StoreResult, SimError> {
        self.settle(core, cycle);

        // Coherence: invalidate remote copies (committed stores only — a
        // suppressed speculative store must not even send invalidations).
        let (latency, outcome, source);
        if let Some(hit) = self.l1d[core].probe(addr) {
            outcome = Self::check_locks(&hit.locks, addr, width);
            latency = self.cfg.l1d.hit_latency;
            source = ServicePoint::L1;
            if !(mode == FillMode::SuppressIfUnsafe && outcome == TagCheckOutcome::Unsafe) {
                self.stats.l1d[core].hits += 1;
                self.l1d[core].touch(addr);
                self.l1d[core].mark_dirty(addr);
            } else {
                self.stats.suppressed_fills += 1;
            }
        } else if let Some(hit) = self.l2.probe(addr) {
            outcome = Self::check_locks(&hit.locks, addr, width);
            latency = self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency;
            source = ServicePoint::L2;
            self.stats.l1d[core].misses += 1;
            self.stats.l2.hits += 1;
            if !(mode == FillMode::SuppressIfUnsafe && outcome == TagCheckOutcome::Unsafe) {
                self.l2.touch(addr);
                let data = self.line_data_snapshot(addr);
                let mshr_delay = self.l1_mshr[core].allocate(addr, cycle, latency, outcome)?;
                self.lfb[core].allocate(addr, cycle, cycle + latency + mshr_delay, hit.locks, data);
                self.l1d[core].mark_dirty(addr);
            } else {
                self.stats.suppressed_fills += 1;
            }
        } else {
            self.stats.l1d[core].misses += 1;
            self.stats.l2.misses += 1;
            let resp = self.dram.access(&mut self.tags, addr, width);
            outcome = resp.outcome;
            latency = self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency + resp.latency;
            source = ServicePoint::Dram;
            if !(mode == FillMode::SuppressIfUnsafe && outcome == TagCheckOutcome::Unsafe) {
                self.l2.install(addr, resp.line_locks, cycle + latency, false);
                let data = self.line_data_snapshot(addr);
                self.lfb[core].allocate(addr, cycle, cycle + latency, resp.line_locks, data);
            } else {
                self.stats.suppressed_fills += 1;
            }
        }

        if !(mode == FillMode::SuppressIfUnsafe && outcome == TagCheckOutcome::Unsafe) {
            for c in 0..self.cores {
                if c != core {
                    if self.l1d[c].invalidate(addr) {
                        self.stats.coherence_invalidations += 1;
                    }
                    if self.lfb[c].invalidate(addr) {
                        self.stats.coherence_invalidations += 1;
                    }
                }
            }
        }

        Ok(StoreResult { latency, outcome, source })
    }

    /// Architectural read (functional path of the pipeline's execute stage).
    pub fn read_arch(&self, addr: VirtAddr, width: u64) -> u64 {
        self.arch.read(addr, width)
    }

    /// Architectural write (applied at commit).
    pub fn write_arch(&mut self, addr: VirtAddr, width: u64, value: u64) {
        self.arch.write(addr, width, value);
    }

    /// Commits an `STG`-style allocation-tag store: updates the tag storage
    /// and every cached copy of the line's locks — caches, LFBs, ghosts —
    /// keeping tags coherent across the hierarchy (§3.3.3).
    pub fn store_tag(&mut self, addr: VirtAddr, tag: TagNibble) {
        self.tags.set_granule(addr, tag);
        for c in 0..self.cores {
            if self.l1d[c].update_lock(addr, tag) {
                self.stats.lock_maintenance_updates += 1;
            }
            if self.lfb[c].update_lock(addr, tag) {
                self.stats.lock_maintenance_updates += 1;
            }
            if let Some(g) = self.ghosts[c]
                .entries
                .iter_mut()
                .find(|e| e.line_addr == addr.line_base().raw())
            {
                g.locks[addr.granule_in_line()] = tag;
                self.stats.lock_maintenance_updates += 1;
            }
        }
        if self.l2.update_lock(addr, tag) {
            self.stats.lock_maintenance_updates += 1;
        }
    }

    /// Reads the allocation tag of `addr`'s granule (`LDG`).
    pub fn load_tag(&self, addr: VirtAddr) -> TagNibble {
        self.tags.tag_of(addr)
    }

    // ---- GhostMinion support --------------------------------------------

    /// Promotes the ghost line containing `addr` (if any) into the committed
    /// hierarchy (L1 + L2) — called when the speculative load that fetched
    /// it commits. Without the L2 install, every speculative reuse would
    /// re-pay a DRAM fetch.
    pub fn promote_ghost(&mut self, core: usize, addr: VirtAddr, cycle: u64) -> bool {
        if let Some(g) = self.ghosts[core].take(addr.line_base().raw()) {
            self.l1d[core].install(VirtAddr::new(g.line_addr), g.locks, cycle, false);
            self.l2.install(VirtAddr::new(g.line_addr), g.locks, cycle, false);
            self.stats.ghost_promotions += 1;
            true
        } else {
            false
        }
    }

    /// Drops the ghost entry holding `addr`'s line, if any (squash recovery
    /// of a single speculative load).
    pub fn drop_ghost_line(&mut self, core: usize, addr: VirtAddr) -> bool {
        if self.ghosts[core].take(addr.line_base().raw()).is_some() {
            self.stats.ghost_drops += 1;
            true
        } else {
            false
        }
    }

    // ---- observability (leak oracle & tests) ------------------------------

    /// Whether `addr`'s line is present in the core's L1, its LFB, or the L2
    /// — i.e. whether a Flush+Reload probe would observe a fast access.
    pub fn is_cached(&self, core: usize, addr: VirtAddr) -> bool {
        self.l1d[core].probe(addr).is_some()
            || self.lfb[core].find(addr).is_some()
            || self.l2.probe(addr).is_some()
    }

    /// Whether `addr`'s line sits in the core's *ghost* buffer.
    pub fn is_ghost_cached(&self, core: usize, addr: VirtAddr) -> bool {
        self.ghosts[core].find(addr.line_base().raw()).is_some()
    }

    /// Flushes `addr`'s line everywhere (the `clflush` of a Flush+Reload
    /// attacker).
    pub fn flush_line(&mut self, addr: VirtAddr) {
        for c in 0..self.cores {
            self.l1d[c].invalidate(addr);
            self.lfb[c].invalidate(addr);
            let la = addr.line_base().raw();
            self.ghosts[c].entries.retain(|e| e.line_addr != la);
        }
        self.l2.invalidate(addr);
    }

    /// LFB occupancy of a core (timing-contention observable).
    pub fn lfb_occupancy(&self, core: usize) -> usize {
        self.lfb[core].occupancy()
    }

    /// Outstanding misses in a core's L1 MSHR file at `cycle`.
    pub fn l1_mshr_occupancy(&self, core: usize, cycle: u64) -> usize {
        self.l1_mshr[core].in_flight(cycle)
    }

    /// Outstanding misses in the shared L2 MSHR file at `cycle`.
    pub fn l2_mshr_occupancy(&self, cycle: u64) -> usize {
        self.l2_mshr.in_flight(cycle)
    }

    /// Exports cache and hierarchy counters under `mem.*` names.
    pub fn export_metrics(&self, reg: &mut sas_telemetry::MetricsRegistry) {
        let s = self.stats();
        for (i, c) in s.l1d.iter().enumerate() {
            let p = format!("mem.l1d{i}");
            reg.counter(format!("{p}.hits"), c.hits);
            reg.counter(format!("{p}.misses"), c.misses);
            reg.counter(format!("{p}.fills"), c.fills);
            reg.counter(format!("{p}.invalidations"), c.invalidations);
            reg.counter(format!("{p}.tag_checks"), c.tag_checks);
            reg.counter(format!("{p}.tag_mismatches"), c.tag_mismatches);
        }
        reg.counter("mem.l2.hits", s.l2.hits);
        reg.counter("mem.l2.misses", s.l2.misses);
        reg.counter("mem.l2.fills", s.l2.fills);
        reg.counter("mem.l2.invalidations", s.l2.invalidations);
        reg.counter("mem.l2.tag_checks", s.l2.tag_checks);
        reg.counter("mem.l2.tag_mismatches", s.l2.tag_mismatches);
        reg.counter("mem.suppressed_fills", s.suppressed_fills);
        reg.counter("mem.stale_forwards", s.stale_forwards);
        reg.counter("mem.stale_forwards_blocked", s.stale_forwards_blocked);
        reg.counter("mem.ghost_fills", s.ghost_fills);
        reg.counter("mem.ghost_promotions", s.ghost_promotions);
        reg.counter("mem.ghost_drops", s.ghost_drops);
        reg.counter("mem.lock_maintenance_updates", s.lock_maintenance_updates);
        reg.counter("mem.coherence_invalidations", s.coherence_invalidations);
        reg.counter("mem.prefetches_issued", s.prefetches_issued);
        reg.counter("mem.prefetches_suppressed", s.prefetches_suppressed);
        reg.counter("mem.tag_hint_hits", s.tag_hint_hits);
        for (i, m) in self.l1_mshr.iter().enumerate() {
            reg.counter(format!("mem.l1_mshr{i}.peak_occupancy"), m.peak_occupancy() as u64);
        }
        reg.counter("mem.l2_mshr.peak_occupancy", self.l2_mshr.peak_occupancy() as u64);
    }

    /// Snapshot of the statistics (L1 cache-internal stats merged in).
    pub fn stats(&self) -> MemSystemStats {
        let mut s = self.stats.clone();
        for (i, c) in self.l1d.iter().enumerate() {
            let cs = c.stats();
            s.l1d[i].tag_checks = cs.tag_checks;
            s.l1d[i].tag_mismatches = cs.tag_mismatches;
            s.l1d[i].fills = cs.fills;
            s.l1d[i].invalidations = cs.invalidations;
        }
        let l2s = self.l2.stats();
        s.l2.tag_checks = l2s.tag_checks;
        s.l2.tag_mismatches = l2s.tag_mismatches;
        s.l2.fills = l2s.fills;
        s.l2.invalidations = l2s.invalidations;
        s
    }

    /// Stale-forward counters from the per-core LFBs.
    pub fn lfb_stale_forwards(&self, core: usize) -> u64 {
        self.lfb[core].stale_forwards()
    }

    /// The privileged `[lo, hi)` ranges registered so far.
    pub fn protected_ranges(&self) -> &[(u64, u64)] {
        &self.protected
    }

    /// Crash-dump snapshot: every outstanding MSHR entry, labelled per file
    /// ("l1[core]" / "l2").
    pub fn mshr_snapshot(&self) -> Vec<(String, Vec<MshrEntry>)> {
        let mut out: Vec<(String, Vec<MshrEntry>)> = self
            .l1_mshr
            .iter()
            .enumerate()
            .map(|(c, m)| (format!("l1[{c}]"), m.entries().to_vec()))
            .collect();
        out.push(("l2".to_string(), self.l2_mshr.entries().to_vec()));
        out
    }

    // ---- snapshot support -------------------------------------------------

    /// Serializes every mutable part of the hierarchy. Configuration
    /// (geometry, latencies, capacities) is not written: a restore target is
    /// built from the same config, and structural codecs reject mismatches.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        // The page images lead the section and are most of it: the memory
        // pages a run changed and every tag page. Reserving the whole
        // section first spares the encoder doubling copies of a
        // multi-megabyte buffer; capacity left unwritten costs no resident
        // memory.
        let images = self.arch.encoded_len() + self.tags.encoded_len();
        e.reserve(sas_snap::uv_len(self.cores as u64) + images + ENCODED_TAIL_BYTES);
        e.usz(self.cores);
        self.arch.encode(e);
        self.tags.encode(e);
        for c in &self.l1d {
            c.encode(e);
        }
        for l in &self.lfb {
            l.encode(e);
        }
        for m in &self.l1_mshr {
            m.encode(e);
        }
        self.l2.encode(e);
        self.l2_mshr.encode(e);
        self.dram.encode(e);
        for g in &self.ghosts {
            e.seq(&g.entries, |e, en| {
                e.uv(en.line_addr);
                for t in en.locks {
                    e.u8(t.value());
                }
            });
        }
        for p in &self.prefetchers {
            p.encode(e);
        }
        let hints: Vec<(u64, [TagNibble; 4])> = self.tag_hints.iter().copied().collect();
        e.seq(&hints, |e, (la, locks)| {
            e.uv(*la);
            for t in locks {
                e.u8(t.value());
            }
        });
        e.seq(&self.protected, |e, (lo, hi)| {
            e.uv(*lo);
            e.uv(*hi);
        });
        e.opt_with(self.faults.as_ref(), |e, f| {
            f.tag_flip.encode(e);
            f.arch_flip.encode(e);
            f.mshr_drop.encode(e);
            f.fill_delay.encode(e);
            e.seq(&f.dead_lines, |e, l| e.uv(*l));
        });
        for s in &self.stats.l1d {
            encode_cache_stats(e, s);
        }
        encode_cache_stats(e, &self.stats.l2);
        e.uv(self.stats.suppressed_fills);
        e.uv(self.stats.stale_forwards);
        e.uv(self.stats.stale_forwards_blocked);
        e.uv(self.stats.ghost_fills);
        e.uv(self.stats.ghost_promotions);
        e.uv(self.stats.ghost_drops);
        e.uv(self.stats.lock_maintenance_updates);
        e.uv(self.stats.coherence_invalidations);
        e.uv(self.stats.prefetches_issued);
        e.uv(self.stats.prefetches_suppressed);
        e.uv(self.stats.tag_hint_hits);
    }

    /// Restores state serialized by [`MemSystem::encode`] into a system
    /// built with the same core count and configuration. If the snapshot
    /// carries a fault cursor, the same fault plan must already be armed
    /// (via [`MemSystem::arm_faults`]); the cursor then resumes mid-stream.
    ///
    /// # Errors
    ///
    /// Truncated input, a core-count or geometry mismatch, a fault-arming
    /// mismatch, or any out-of-range value.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let cores = d.usz()?;
        if cores != self.cores {
            return Err(sas_snap::SnapError::BadValue {
                what: "memory system core count",
                value: cores as u64,
            });
        }
        self.arch.restore(d)?;
        self.tags.restore(d)?;
        for c in &mut self.l1d {
            c.restore(d)?;
        }
        for l in &mut self.lfb {
            l.restore(d)?;
        }
        for m in &mut self.l1_mshr {
            m.restore(d)?;
        }
        self.l2.restore(d)?;
        self.l2_mshr.restore(d)?;
        self.dram.restore(d)?;
        for g in &mut self.ghosts {
            g.entries = d.seq(g.cap, |d| {
                let line_addr = d.uv()?;
                let mut locks = [TagNibble::ZERO; 4];
                for t in &mut locks {
                    *t = decode_nibble(d, "ghost lock nibble")?;
                }
                Ok(GhostEntry { line_addr, locks })
            })?;
        }
        for p in &mut self.prefetchers {
            p.restore(d)?;
        }
        let hints = d.seq(1 << 16, |d| {
            let la = d.uv()?;
            let mut locks = [TagNibble::ZERO; 4];
            for t in &mut locks {
                *t = decode_nibble(d, "tag hint nibble")?;
            }
            Ok((la, locks))
        })?;
        self.tag_hints = hints.into_iter().collect();
        self.protected = d.seq(1 << 16, |d| Ok((d.uv()?, d.uv()?)))?;
        let has_faults = d.bool()?;
        if has_faults != self.faults.is_some() {
            return Err(sas_snap::SnapError::BadValue {
                what: "fault arming mismatch",
                value: has_faults as u64,
            });
        }
        if let Some(f) = &mut self.faults {
            f.tag_flip.restore(d)?;
            f.arch_flip.restore(d)?;
            f.mshr_drop.restore(d)?;
            f.fill_delay.restore(d)?;
            f.dead_lines = d.seq(1 << 20, |d| d.uv())?;
        }
        for s in &mut self.stats.l1d {
            restore_cache_stats(d, s)?;
        }
        restore_cache_stats(d, &mut self.stats.l2)?;
        self.stats.suppressed_fills = d.uv()?;
        self.stats.stale_forwards = d.uv()?;
        self.stats.stale_forwards_blocked = d.uv()?;
        self.stats.ghost_fills = d.uv()?;
        self.stats.ghost_promotions = d.uv()?;
        self.stats.ghost_drops = d.uv()?;
        self.stats.lock_maintenance_updates = d.uv()?;
        self.stats.coherence_invalidations = d.uv()?;
        self.stats.prefetches_issued = d.uv()?;
        self.stats.prefetches_suppressed = d.uv()?;
        self.stats.tag_hint_hits = d.uv()?;
        Ok(())
    }
}

fn encode_cache_stats(e: &mut sas_snap::Enc, s: &CacheStats) {
    e.uv(s.hits);
    e.uv(s.misses);
    e.uv(s.fills);
    e.uv(s.invalidations);
    e.uv(s.tag_checks);
    e.uv(s.tag_mismatches);
}

fn restore_cache_stats(
    d: &mut sas_snap::Dec,
    s: &mut CacheStats,
) -> Result<(), sas_snap::SnapError> {
    s.hits = d.uv()?;
    s.misses = d.uv()?;
    s.fills = d.uv()?;
    s.invalidations = d.uv()?;
    s.tag_checks = d.uv()?;
    s.tag_mismatches = d.uv()?;
    Ok(())
}

fn decode_nibble(
    d: &mut sas_snap::Dec,
    what: &'static str,
) -> Result<TagNibble, sas_snap::SnapError> {
    let v = d.u8()?;
    if v > 0xF {
        return Err(sas_snap::SnapError::BadValue { what, value: v as u64 });
    }
    Ok(TagNibble::new(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(1, MemConfig::default())
    }

    fn tagged_ptr(addr: u64, key: u8) -> VirtAddr {
        VirtAddr::new(addr).with_key(TagNibble::new(key))
    }

    #[test]
    fn cold_load_hits_dram_then_l1() {
        let mut m = sys();
        let a = VirtAddr::new(0x1000);
        let r1 = m.load(0, a, 8, 0, FillMode::Install, false).unwrap();
        assert_eq!(r1.source, ServicePoint::Dram);
        assert_eq!(r1.latency, 2 + 12 + 80);
        // After the fill settles, the line hits in L1.
        let r2 = m.load(0, a, 8, r1.latency + 1, FillMode::Install, false).unwrap();
        assert_eq!(r2.source, ServicePoint::L1);
        assert_eq!(r2.latency, 2);
    }

    #[test]
    fn inflight_line_is_served_from_lfb() {
        let mut m = sys();
        let a = VirtAddr::new(0x1000);
        let r1 = m.load(0, a, 8, 0, FillMode::Install, false).unwrap();
        // Second access before the fill completes: LFB hit, waits remainder.
        let r2 = m.load(0, a.offset(8), 8, 10, FillMode::Install, false).unwrap();
        assert_eq!(r2.source, ServicePoint::Lfb);
        assert_eq!(r2.latency, (r1.latency - 10) + 2);
    }

    #[test]
    fn unsafe_load_suppression_leaves_no_trace() {
        let mut m = sys();
        m.tags.set_range(VirtAddr::new(0x1000), 64, TagNibble::new(0x3));
        let bad = tagged_ptr(0x1000, 0xb);
        let r = m.load(0, bad, 8, 0, FillMode::SuppressIfUnsafe, false).unwrap();
        assert_eq!(r.outcome, TagCheckOutcome::Unsafe);
        assert!(!r.data_returned);
        assert!(!m.is_cached(0, VirtAddr::new(0x1000)), "no fill anywhere");
        assert_eq!(m.stats().suppressed_fills, 1);
    }

    #[test]
    fn unsafe_load_install_mode_fills_anyway() {
        let mut m = sys();
        m.tags.set_range(VirtAddr::new(0x1000), 64, TagNibble::new(0x3));
        let bad = tagged_ptr(0x1000, 0xb);
        let r = m.load(0, bad, 8, 0, FillMode::Install, false).unwrap();
        assert_eq!(r.outcome, TagCheckOutcome::Unsafe);
        assert!(r.data_returned);
        assert!(m.is_cached(0, VirtAddr::new(0x1000)), "baseline leaks the fill");
    }

    #[test]
    fn l1_hit_with_matching_key_is_safe() {
        let mut m = sys();
        m.tags.set_range(VirtAddr::new(0x1000), 64, TagNibble::new(0x3));
        let good = tagged_ptr(0x1000, 0x3);
        let r1 = m.load(0, good, 8, 0, FillMode::Install, false).unwrap();
        assert_eq!(r1.outcome, TagCheckOutcome::Safe);
        let r2 = m.load(0, good, 8, r1.latency + 1, FillMode::SuppressIfUnsafe, false).unwrap();
        assert_eq!(r2.source, ServicePoint::L1);
        assert_eq!(r2.outcome, TagCheckOutcome::Safe);
        assert!(r2.data_returned);
    }

    #[test]
    fn ghost_mode_fills_ghost_not_l1() {
        let mut m = sys();
        let a = VirtAddr::new(0x2000);
        let r = m.load(0, a, 8, 0, FillMode::Ghost, false).unwrap();
        assert_eq!(r.source, ServicePoint::Dram);
        assert!(!m.is_cached(0, a), "committed hierarchy untouched");
        assert!(m.is_ghost_cached(0, a));
        // A second ghost load hits the ghost buffer quickly.
        let r2 = m.load(0, a, 8, 200, FillMode::Ghost, false).unwrap();
        assert_eq!(r2.source, ServicePoint::Ghost);
    }

    #[test]
    fn ghost_promote_and_drop() {
        let mut m = sys();
        let a = VirtAddr::new(0x2000);
        m.load(0, a, 8, 0, FillMode::Ghost, false).unwrap();
        assert!(m.promote_ghost(0, a, 10));
        assert!(m.is_cached(0, a));
        assert!(!m.is_ghost_cached(0, a));

        let b = VirtAddr::new(0x4000);
        m.load(0, b, 8, 20, FillMode::Ghost, false).unwrap();
        assert!(m.drop_ghost_line(0, b));
        assert!(!m.is_ghost_cached(0, b));
        assert_eq!(m.stats().ghost_drops, 1);
        assert_eq!(m.stats().ghost_promotions, 1);
    }

    #[test]
    fn faulting_load_samples_stale_lfb_data() {
        let mut m = sys();
        m.add_protected_range(0x9000, 0x1000);
        // Victim brings a line in flight with known bytes.
        m.arch.write(VirtAddr::new(0x5000), 8, 0x4242_4242_4242_4242);
        m.load(0, VirtAddr::new(0x5000), 8, 0, FillMode::Install, false).unwrap();
        // Attacker's faulting load samples the in-flight data.
        let fault_addr = VirtAddr::new(0x9000);
        assert!(m.is_protected(fault_addr));
        let r = m.load(0, fault_addr, 8, 1, FillMode::Install, true).unwrap();
        assert_eq!(r.stale_lfb_data, Some(0x4242_4242_4242_4242));
        assert!(r.data_returned);
    }

    #[test]
    fn specasan_blocks_stale_forward_of_tagged_line() {
        let mut m = sys();
        m.add_protected_range(0x9000, 0x1000);
        m.tags.set_range(VirtAddr::new(0x5000), 64, TagNibble::new(0x6));
        m.arch.write(VirtAddr::new(0x5000), 8, 0x4242_4242_4242_4242);
        let victim_ptr = tagged_ptr(0x5000, 0x6);
        m.load(0, victim_ptr, 8, 0, FillMode::Install, false).unwrap();
        let r = m.load(0, VirtAddr::new(0x9000), 8, 1, FillMode::SuppressIfUnsafe, true).unwrap();
        assert_eq!(r.outcome, TagCheckOutcome::Unsafe);
        assert!(!r.data_returned);
        assert_eq!(r.stale_lfb_data, None);
        assert_eq!(m.stats().stale_forwards_blocked, 1);
    }

    #[test]
    fn store_invalidates_remote_copies() {
        let mut m = MemSystem::new(2, MemConfig::default());
        let a = VirtAddr::new(0x3000);
        // Core 1 caches the line.
        let r = m.load(1, a, 8, 0, FillMode::Install, false).unwrap();
        let t = r.latency + 1;
        m.load(1, a, 8, t, FillMode::Install, false).unwrap();
        assert!(m.is_cached(1, a));
        // Core 0 stores to it.
        m.store(0, a, 8, t + 1, FillMode::Install).unwrap();
        assert!(m.l1d[1].probe(a).is_none(), "remote L1 invalidated");
        assert!(m.stats().coherence_invalidations >= 1);
    }

    #[test]
    fn store_tag_updates_cached_locks_everywhere() {
        let mut m = sys();
        let a = VirtAddr::new(0x1000);
        let r = m.load(0, a, 8, 0, FillMode::Install, false).unwrap();
        m.load(0, a, 8, r.latency + 1, FillMode::Install, false).unwrap(); // in L1 now
        m.store_tag(a, TagNibble::new(0x9));
        let good = tagged_ptr(0x1000, 0x9);
        let r2 = m.load(0, good, 8, r.latency + 2, FillMode::Install, false).unwrap();
        assert_eq!(r2.source, ServicePoint::L1);
        assert_eq!(r2.outcome, TagCheckOutcome::Safe, "cached lock was updated in place");
        assert_eq!(m.load_tag(a), TagNibble::new(0x9));
    }

    #[test]
    fn flush_line_removes_all_copies() {
        let mut m = sys();
        let a = VirtAddr::new(0x1000);
        let r = m.load(0, a, 8, 0, FillMode::Install, false).unwrap();
        m.load(0, a, 8, r.latency + 1, FillMode::Install, false).unwrap();
        assert!(m.is_cached(0, a));
        m.flush_line(a);
        assert!(!m.is_cached(0, a));
    }

    #[test]
    fn suppressed_store_sends_no_invalidations() {
        let mut m = MemSystem::new(2, MemConfig::default());
        let a = VirtAddr::new(0x3000);
        m.tags.set_range(a, 64, TagNibble::new(0x2));
        let r = m.load(1, a, 8, 0, FillMode::Install, false).unwrap();
        m.load(1, a, 8, r.latency + 1, FillMode::Install, false).unwrap();
        let bad = tagged_ptr(0x3000, 0x7);
        m.store(0, bad, 8, r.latency + 2, FillMode::SuppressIfUnsafe).unwrap();
        assert!(m.l1d[1].probe(a).is_some(), "remote copy survives a suppressed store");
    }

    #[test]
    fn protected_range_detection() {
        let mut m = sys();
        m.add_protected_range(0x9000, 0x100);
        assert!(m.is_protected(VirtAddr::new(0x9000)));
        assert!(m.is_protected(VirtAddr::new(0x90FF)));
        assert!(!m.is_protected(VirtAddr::new(0x9100)));
    }

    #[test]
    fn conventional_prefetcher_crosses_tag_boundaries() {
        // The §6 risk: a stride stream marching toward a secret pulls the
        // secret's line into the cache without any demand access.
        let cfg = MemConfig {
            prefetch: crate::prefetch::PrefetchConfig::conventional(),
            ..MemConfig::default()
        };
        let mut m = MemSystem::new(1, cfg);
        let secret_line = VirtAddr::new(0x1100);
        m.tags.set_range(secret_line, 64, TagNibble::new(0x9));
        let mut cycle = 0;
        for line in 0..4u64 {
            let r = m.load(0, VirtAddr::new(0x1000 + line * 64), 8, cycle, FillMode::Install, false).unwrap();
            cycle += r.latency + 1;
        }
        assert!(m.is_cached(0, secret_line), "prefetch pulled the tagged line in");
        assert!(m.stats().prefetches_issued > 0);
    }

    #[test]
    fn secure_prefetcher_stops_at_tag_boundaries() {
        let cfg = MemConfig {
            prefetch: crate::prefetch::PrefetchConfig::secure(),
            ..MemConfig::default()
        };
        let mut m = MemSystem::new(1, cfg);
        let secret_line = VirtAddr::new(0x1100);
        m.tags.set_range(secret_line, 64, TagNibble::new(0x9));
        let mut cycle = 0;
        for line in 0..4u64 {
            let r = m.load(0, VirtAddr::new(0x1000 + line * 64), 8, cycle, FillMode::Install, false).unwrap();
            cycle += r.latency + 1;
        }
        assert!(
            !m.is_cached(0, secret_line),
            "the tag-checked prefetcher must not fetch across the colour boundary"
        );
        assert!(m.stats().prefetches_suppressed > 0);
    }

    #[test]
    fn tag_hints_skip_serialized_tag_fetches() {
        let mut cfg = MemConfig::default();
        cfg.dram.parallel_tag_fetch = false; // make the tag fetch visible
        cfg.tag_hint_responses = true;
        let mut m = MemSystem::new(1, cfg);
        m.tags.set_range(VirtAddr::new(0x3000), 64, TagNibble::new(0x4));
        let p = VirtAddr::new(0x3000).with_key(TagNibble::new(0x4));
        let first = m.load(0, p, 8, 0, FillMode::Install, false).unwrap();
        // Evict so the second access goes to DRAM again, now with a hint.
        m.flush_line(p);
        let second = m.load(0, p.offset(8), 8, first.latency + 10, FillMode::Install, false).unwrap();
        assert!(second.latency < first.latency, "hint skips the serialized tag fetch");
        assert_eq!(second.outcome, TagCheckOutcome::Safe);
        assert_eq!(m.stats().tag_hint_hits, 1);
    }

    #[test]
    fn armed_tag_flip_corrupts_replayably() {
        use sas_ptest::{FaultPlan, InjectionPoint};
        let plan = FaultPlan::new(0x5EED)
            .enable(InjectionPoint::TagFlip, 1000, 1)
            .target_window(0x1000, 0x40);
        let run = |plan: &FaultPlan| {
            let mut m = sys();
            m.tags.set_range(VirtAddr::new(0x1000), 64, TagNibble::new(0x3));
            m.arm_faults(plan);
            m.load(0, VirtAddr::new(0x1000), 8, 0, FillMode::Install, false).unwrap();
            let tags: Vec<u8> =
                (0..4).map(|g| m.tags.tag_of(VirtAddr::new(0x1000 + g * 16)).value()).collect();
            (m.corruption_injections(), tags)
        };
        let (n1, t1) = run(&plan);
        let (n2, t2) = run(&plan);
        assert_eq!(n1, 1, "rate-1000 max-1 plan injects exactly once");
        assert_eq!((n1, &t1), (n2, &t2), "same seed, same corruption");
        assert!(t1.iter().any(|&t| t != 0x3), "one granule's stored tag was flipped");
    }

    #[test]
    fn dropped_fill_stalls_beyond_any_budget() {
        use sas_ptest::{FaultPlan, InjectionPoint};
        let plan = FaultPlan::new(1).enable(InjectionPoint::MshrDropFill, 1000, 1);
        let mut m = sys();
        m.arm_faults(&plan);
        let r = m.load(0, VirtAddr::new(0x1000), 8, 0, FillMode::Install, false).unwrap();
        assert!(r.latency > 1_000_000, "dropped fill never completes: {}", r.latency);
        assert_eq!(m.corruption_injections(), 1);
    }

    #[test]
    fn fill_delay_is_bounded_and_benign() {
        use sas_ptest::{FaultPlan, InjectionPoint};
        let plan = FaultPlan::new(2).enable(InjectionPoint::FillDelay, 1000, 8);
        let mut m = sys();
        m.arm_faults(&plan);
        let base = sys().load(0, VirtAddr::new(0x1000), 8, 0, FillMode::Install, false).unwrap();
        let r = m.load(0, VirtAddr::new(0x1000), 8, 0, FillMode::Install, false).unwrap();
        assert!(r.latency > base.latency, "delay applied");
        assert!(r.latency < base.latency + 1024, "delay bounded");
        assert_eq!(m.corruption_injections(), 0, "delays are perturbation, not corruption");
        assert_eq!(m.fault_injections(), 1);
    }

    #[test]
    fn untagged_key_is_unchecked_at_every_level() {
        let mut m = sys();
        m.tags.set_range(VirtAddr::new(0x1000), 64, TagNibble::new(0x3));
        let a = VirtAddr::new(0x1000); // key 0
        let r1 = m.load(0, a, 8, 0, FillMode::SuppressIfUnsafe, false).unwrap();
        assert_eq!(r1.outcome, TagCheckOutcome::Unchecked);
        assert!(r1.data_returned);
        let r2 = m.load(0, a, 8, r1.latency + 1, FillMode::SuppressIfUnsafe, false).unwrap();
        assert_eq!(r2.source, ServicePoint::L1);
        assert_eq!(r2.outcome, TagCheckOutcome::Unchecked);
    }
}
