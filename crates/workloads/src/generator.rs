//! The synthetic program generator.

use crate::profile::Profile;
use sas_isa::{
    BtiKind, Cond, DataSegment, Operand, Program, ProgramBuilder, Reg, TagNibble, VirtAddr,
    PAGE_BYTES,
};
use sas_mte::SplitMix64;
use sas_pipeline::System;

/// Number of data arrays each workload slices its footprint into.
const ARRAYS: usize = 4;
/// Byte value guard entries stay below, so guard branches never fire. A
/// power of two, so a guard byte is a draw masked with `GUARD_LIMIT - 1`.
const GUARD_LIMIT: u8 = 0x80;
const _: () = assert!(GUARD_LIMIT.is_power_of_two());
/// Blocks generated per outer-loop iteration.
const BLOCKS_PER_ITER: usize = 8;
/// Base virtual address of workload data (per-core instances are offset).
const DATA_BASE: u64 = 0x100_0000;
/// Scratch granule used for MTE retagging churn.
const SCRATCH_OFF: u64 = 0x8000_0000;
/// Base of the shared region used by multi-threaded workloads.
pub(crate) const SHARED_BASE: u64 = 0x4000_0000;
/// Size of the shared region.
pub(crate) const SHARED_SIZE: u64 = 1 << 16;
/// Barrier counter address (inside the shared region's last line).
pub(crate) const BARRIER_ADDR: u64 = SHARED_BASE + SHARED_SIZE;

/// Tagging and layout information to install before running.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSetup {
    /// `(base, len, tag)` colour assignments.
    pub tag_ranges: Vec<(u64, u64, u8)>,
}

impl WorkloadSetup {
    /// Installs the colours into a system's tag storage.
    pub fn apply(&self, sys: &mut System) {
        for &(base, len, tag) in &self.tag_ranges {
            sys.mem_mut()
                .tags
                .set_range(VirtAddr::new(base), len, TagNibble::new(tag));
        }
    }
}

/// A ready-to-run synthetic benchmark.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name.
    pub name: &'static str,
    /// The generated program (data segments included).
    pub program: Program,
    /// Colours to install before running.
    pub setup: WorkloadSetup,
    /// Approximate committed instructions per outer iteration.
    pub approx_insts_per_iter: u64,
}

/// Register conventions of generated code.
mod regs {
    use sas_isa::Reg;
    pub const ARRAY: [Reg; 4] = [Reg::X1, Reg::X2, Reg::X3, Reg::X4];
    pub const CHASE: Reg = Reg::X5;
    pub const STRIDE: Reg = Reg::X6;
    pub const LCG: Reg = Reg::X7;
    pub const VAL: Reg = Reg::X16;
    pub const SCRATCH: Reg = Reg::X17;
    pub const IDX: Reg = Reg::X18;
    pub const ITER: Reg = Reg::X19;
    pub const SHARED: Reg = Reg::X21;
    pub const TMP: [Reg; 4] = [Reg::X8, Reg::X9, Reg::X10, Reg::X11];
    pub const BAR: Reg = Reg::X22;
    pub const ONE: Reg = Reg::X23;
    pub const COUNT: Reg = Reg::X24;
    pub const GUARD: Reg = Reg::X25;
    pub const GIDX: Reg = Reg::X26;
}

struct Gen<'a> {
    profile: &'a Profile,
    rng: SplitMix64,
    array_mask: u64,
    tmp_rr: usize,
}

impl<'a> Gen<'a> {
    fn tmp(&mut self) -> Reg {
        self.tmp_rr = (self.tmp_rr + 1) % regs::TMP.len();
        regs::TMP[self.tmp_rr]
    }

    fn array_reg(&mut self) -> (Reg, usize) {
        let k = self.rng.below(ARRAYS as u64) as usize;
        (regs::ARRAY[k], k)
    }

    /// Emits an index computation into `IDX` per the profile's access mix.
    fn emit_index(&mut self, asm: &mut ProgramBuilder) {
        if self.rng.chance(self.profile.random_frac) {
            // LCG step + mask: a hash-like access pattern.
            asm.mul(regs::LCG, regs::LCG, Operand::imm(6364136223846793005));
            asm.add(regs::LCG, regs::LCG, Operand::imm(1442695040888963407));
            asm.lsr(regs::IDX, regs::LCG, Operand::imm(33));
            asm.and(regs::IDX, regs::IDX, Operand::imm(self.array_mask));
        } else {
            // Strided sweep.
            asm.add(regs::STRIDE, regs::STRIDE, Operand::imm(64));
            asm.and(regs::IDX, regs::STRIDE, Operand::imm(self.array_mask));
        }
    }

    fn emit_load(&mut self, asm: &mut ProgramBuilder) {
        if self.rng.chance(self.profile.chase_frac) {
            // Pointer chase: the quintessential dependent-load chain.
            asm.ldr(regs::CHASE, regs::CHASE, 0);
            return;
        }
        if self.rng.chance(self.profile.indirect_frac) {
            // A[B[i]] indirection: the freshly loaded value becomes the next
            // index — cheap on the baseline, delayed by taint tracking.
            asm.lsl(regs::IDX, regs::VAL, Operand::imm(3));
            asm.and(regs::IDX, regs::IDX, Operand::imm(self.array_mask));
            let (a, _) = self.array_reg();
            asm.ldrb_idx(regs::VAL, a, regs::IDX);
            return;
        }
        if self.profile.shared_frac > 0.0 && self.rng.chance(self.profile.shared_frac) {
            self.emit_index(asm);
            asm.and(regs::IDX, regs::IDX, Operand::imm(SHARED_SIZE - 8));
            asm.ldr_idx(regs::VAL, regs::SHARED, regs::IDX);
            return;
        }
        self.emit_index(asm);
        let (a, _) = self.array_reg();
        asm.ldrb_idx(regs::VAL, a, regs::IDX);
    }

    fn emit_store(&mut self, asm: &mut ProgramBuilder) {
        if self.profile.shared_frac > 0.0 && self.rng.chance(self.profile.shared_frac) {
            self.emit_index(asm);
            asm.and(regs::IDX, regs::IDX, Operand::imm(SHARED_SIZE - 8));
            asm.str_idx(regs::VAL, regs::SHARED, regs::IDX);
            return;
        }
        self.emit_index(asm);
        let (a, _) = self.array_reg();
        asm.str_idx(regs::VAL, a, regs::IDX);
    }

    fn emit_branch(&mut self, asm: &mut ProgramBuilder) {
        if self.rng.chance(self.profile.branch_entropy) {
            // Data-dependent branch. Half the time the condition hangs off
            // the pointer-chase value (a likely cache miss), giving the long
            // speculation windows real irregular code has.
            let t = self.tmp();
            if self.profile.chase_frac > 0.0 && self.rng.chance(0.5) {
                asm.lsr(t, regs::CHASE, Operand::imm(3));
                asm.and(t, t, Operand::imm(1));
            } else {
                asm.and(t, regs::VAL, Operand::imm(1));
            }
            let skip = asm.new_label();
            asm.cbnz(t, skip);
            asm.eor(regs::VAL, regs::VAL, Operand::imm(0x5A));
            asm.add(regs::VAL, regs::VAL, Operand::imm(3));
            asm.bind(skip);
        } else {
            // Loop-like, perfectly predictable branch.
            asm.cmp(regs::STRIDE, Operand::imm(u32::MAX as u64));
            let skip = asm.new_label();
            asm.b_cond(Cond::Hs, skip);
            asm.add(regs::VAL, regs::VAL, Operand::imm(1));
            asm.bind(skip);
        }
    }

    fn emit_alu(&mut self, asm: &mut ProgramBuilder) {
        let t = self.tmp();
        match self.rng.below(5) {
            0 => asm.add(t, regs::VAL, Operand::imm(self.rng.below(64))),
            1 => asm.eor(t, t, Operand::reg(regs::VAL)),
            2 => asm.lsl(t, regs::VAL, Operand::imm(self.rng.below(8))),
            3 => asm.mul(t, t, Operand::imm(3)),
            _ => asm.sub(t, t, Operand::reg(regs::VAL)),
        };
    }

    fn emit_retag(&mut self, asm: &mut ProgramBuilder) {
        // Heap churn: retag the scratch granule with a fresh random colour,
        // the way an MTE-aware allocator colours a freshly served chunk.
        asm.irg(regs::SCRATCH, regs::SCRATCH);
        asm.stg(regs::SCRATCH, 0);
        asm.str(regs::VAL, regs::SCRATCH, 0);
    }

    /// A bounds/validity check: loads a guard byte (strided, so it misses on
    /// every new line) and branches on it. The guard data never exceeds
    /// [`GUARD_LIMIT`], so the branch is never taken and always predicted —
    /// but it stays *unresolved* for the guard load's latency, which is the
    /// speculation window everything in the block sits under.
    fn emit_guard(&mut self, asm: &mut ProgramBuilder) {
        let t = self.tmp();
        asm.add(regs::GIDX, regs::GIDX, Operand::imm(64));
        asm.and(regs::GIDX, regs::GIDX, Operand::imm((1 << 21) - 64));
        asm.ldrb_idx(t, regs::GUARD, regs::GIDX);
        asm.cmp(t, Operand::imm(0xC0));
        let skip = asm.new_label();
        asm.b_cond(Cond::Hs, skip); // never taken: guard bytes < GUARD_LIMIT
        asm.nop();
        asm.bind(skip);
    }

    fn emit_block(&mut self, asm: &mut ProgramBuilder, leaf: sas_isa::Label) {
        if self.rng.chance(self.profile.guard_frac) {
            self.emit_guard(asm);
        }
        for _ in 0..self.profile.loads_per_block {
            self.emit_load(asm);
        }
        for _ in 0..self.profile.alu_per_block {
            self.emit_alu(asm);
        }
        for _ in 0..self.profile.stores_per_block {
            self.emit_store(asm);
        }
        for _ in 0..self.profile.branches_per_block {
            self.emit_branch(asm);
        }
        if self.rng.chance(self.profile.call_frac) {
            asm.bl(leaf);
        }
        if self.rng.chance(self.profile.retag_frac) {
            self.emit_retag(asm);
        }
    }
}

/// Parses an iteration count a user gave as text: an integer in
/// `1..=u32::MAX`, the range [`build_workload`] accepts.
pub fn parse_iterations(text: &str) -> Result<u32, String> {
    match text.parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "iterations must be an integer in 1..={}, got {text:?}",
            u32::MAX
        )),
    }
}

/// `len` bytes at `base`: the draws `rng` makes next, each cut to a byte
/// and masked with `mask`, with `rng` moved past them. Whole pages become
/// a recipe whose pages are computed when first read; anything else (the
/// arrays of a footprint of at most 8 KiB, which only tests use) is drawn
/// now.
fn random_segment(base: u64, len: usize, rng: &mut SplitMix64, mask: u8) -> DataSegment {
    let seg = if base.is_multiple_of(PAGE_BYTES as u64) && len.is_multiple_of(PAGE_BYTES) {
        DataSegment::generated(base, len, rng.clone(), mask)
    } else {
        let mut draws = rng.clone();
        let bytes: Vec<u8> = (0..len).map(|_| draws.next_u64() as u8 & mask).collect();
        DataSegment::new(base, &bytes)
    };
    rng.advance(len as u64);
    seg
}

/// Generates a single-threaded workload instance.
///
/// `iterations` controls run length (committed instructions ≈ `iterations ×`
/// [`Workload::approx_insts_per_iter`]); `seed` selects the deterministic
/// random stream; `core` offsets the data so multiple instances don't share
/// memory.
///
/// # Panics
///
/// Panics if `iterations` is 0: the outer loop decrements before it tests,
/// so 0 would wrap into a 2^64-trip loop.
pub fn build_workload(profile: &Profile, iterations: u32, seed: u64, core: usize) -> Workload {
    build_workload_inner(profile, iterations, seed, core, None)
}

/// Generates one thread of a multi-threaded workload: identical to
/// [`build_workload`] plus a start barrier over the shared region, so all
/// `threads` threads enter their measured phase together.
pub(crate) fn build_workload_inner(
    profile: &Profile,
    iterations: u32,
    seed: u64,
    core: usize,
    barrier_threads: Option<usize>,
) -> Workload {
    assert!(iterations > 0, "a workload needs at least one iteration");
    let mut rng = SplitMix64::new(seed ^ 0x5A5A_0000 ^ core as u64);
    let array_size = (profile.footprint / ARRAYS as u64).next_power_of_two();
    let data_base = DATA_BASE + (core as u64) * 0x1000_0000;

    let mut asm = ProgramBuilder::new();

    // Data segments: pseudorandom bytes; array 0 doubles as the chase ring.
    // The others are recipes whose pages are computed when first read; the
    // generator skips over their bytes, so the stream after the data (and
    // with it every instruction) is what drawing each byte would leave.
    let mut tagged = [None; ARRAYS];
    let mut setup = WorkloadSetup::default();
    for (k, slot) in tagged.iter_mut().enumerate() {
        let base = data_base + k as u64 * array_size;
        let tag = if rng.chance(profile.tagged_frac) {
            let t = 1 + rng.below(15) as u8;
            setup.tag_ranges.push((base, array_size, t));
            Some(t)
        } else {
            None
        };
        *slot = tag;
        let len = array_size.min(1 << 20) as usize;
        if k > 0 {
            asm.segment(random_segment(base, len, &mut rng, 0xff));
        } else {
            // Chase ring: 8-byte tagged pointers forming one random cycle.
            // The ring covers the whole array, so its random bytes are
            // only skipped.
            rng.advance(len as u64);
            let entries = (len / 8).max(2);
            let mut perm: Vec<usize> = (0..entries).collect();
            for i in (1..entries).rev() {
                perm.swap(i, rng.below(i as u64 + 1) as usize);
            }
            // Inverse permutation so each entry finds its ring successor in
            // O(1); the old per-entry `position()` scan made ring
            // construction quadratic in the array size (seconds per cell on
            // the large-footprint benchmarks, dwarfing the simulation).
            let mut pos = vec![0usize; entries];
            for (j, &p) in perm.iter().enumerate() {
                pos[p] = j;
            }
            let mut ring = vec![0u8; entries * 8];
            for (entry, &at) in ring.chunks_exact_mut(8).zip(&pos) {
                let next = perm[(at + 1) % entries];
                let mut ptr = VirtAddr::new(base + next as u64 * 8);
                if let Some(t) = tag {
                    ptr = ptr.with_key(TagNibble::new(t));
                }
                entry.copy_from_slice(&ptr.raw().to_le_bytes());
            }
            asm.segment(DataSegment::new(base, &ring));
        }
    }
    // Guard array: strided validity bytes, always below the check limit.
    // Guards walk metadata (object headers, bounds words) scattered across
    // the whole address space, so they are sized past the L2 — their misses
    // are cheap for an unconstrained machine (MLP hides them) but define
    // the speculation windows restrictive defenses serialize on.
    let guard_size: u64 = 1 << 21;
    let guard_base = data_base + ARRAYS as u64 * array_size;
    asm.segment(random_segment(
        guard_base,
        guard_size as usize,
        &mut rng,
        GUARD_LIMIT - 1,
    ));

    // Scratch granule (retag target).
    let scratch = data_base + SCRATCH_OFF;
    setup.tag_ranges.push((scratch, 16, 1));

    // --- leaf function --------------------------------------------------
    let leaf = asm.named_label("leaf");
    asm.bind(leaf);
    asm.bti(BtiKind::Call);
    asm.add(Reg::X15, Reg::X15, Operand::imm(1));
    asm.eor(Reg::X15, Reg::X15, Operand::reg(regs::VAL));
    asm.ret();

    // --- entry: register setup -------------------------------------------
    let entry_idx = asm.here();
    asm.entry(entry_idx);
    for (k, &r) in regs::ARRAY.iter().enumerate() {
        let base = data_base + k as u64 * array_size;
        let mut ptr = VirtAddr::new(base);
        if let Some(t) = tagged[k] {
            ptr = ptr.with_key(TagNibble::new(t));
        }
        asm.mov_imm64(r, ptr.raw());
    }
    {
        let mut chase0 = VirtAddr::new(data_base);
        if let Some(t) = tagged[0] {
            chase0 = chase0.with_key(TagNibble::new(t));
        }
        asm.mov_imm64(regs::CHASE, chase0.raw());
    }
    asm.mov_imm64(
        regs::SCRATCH,
        VirtAddr::new(scratch).with_key(TagNibble::new(1)).raw(),
    );
    asm.mov_imm64(regs::GUARD, guard_base);
    asm.movz(regs::GIDX, 0, 0);
    asm.mov_imm64(regs::LCG, seed | 1);
    asm.movz(regs::STRIDE, 0, 0);
    asm.mov_imm64(regs::SHARED, SHARED_BASE);
    asm.movz(regs::ITER, (iterations & 0xFFFF) as u16, 0);
    if iterations > 0xFFFF {
        asm.movk(regs::ITER, (iterations >> 16) as u16, 1);
    }

    // Start barrier (multi-threaded workloads): atomically announce arrival,
    // then spin until every thread has.
    if let Some(threads) = barrier_threads {
        asm.mov_imm64(regs::BAR, BARRIER_ADDR);
        asm.movz(regs::ONE, 1, 0);
        asm.movz(regs::COUNT, threads as u16, 0);
        asm.amo(sas_isa::AmoOp::Add, Reg::X8, regs::BAR, regs::ONE, Reg::XZR);
        let spin = asm.here();
        asm.ldr(Reg::X8, regs::BAR, 0);
        asm.cmp(Reg::X8, Operand::reg(regs::COUNT));
        asm.b_cond_idx(Cond::Lo, spin);
    }

    // --- body --------------------------------------------------------------
    let mut g = Gen {
        profile,
        rng,
        array_mask: array_size.min(1 << 20) - 64,
        tmp_rr: 0,
    };
    let outer = asm.here();
    for _ in 0..BLOCKS_PER_ITER {
        g.emit_block(&mut asm, leaf);
    }
    asm.sub(regs::ITER, regs::ITER, Operand::imm(1));
    asm.cbnz_idx(regs::ITER, outer);
    asm.halt();

    let program = asm.build().expect("workload assembles");
    let block_len = profile.approx_block_len() as u64;
    Workload {
        name: profile.name,
        program,
        setup,
        approx_insts_per_iter: block_len * BLOCKS_PER_ITER as u64 + 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_mem::MemConfig;
    use sas_pipeline::{CoreConfig, NoPolicy, RunExit};
    use specasan::{build_system, Mitigation, SimConfig};

    fn profile() -> Profile {
        Profile {
            name: "unit",
            footprint: 1 << 14,
            alu_per_block: 3,
            loads_per_block: 2,
            stores_per_block: 1,
            chase_frac: 0.2,
            indirect_frac: 0.2,
            random_frac: 0.3,
            branches_per_block: 1,
            branch_entropy: 0.5,
            guard_frac: 0.3,
            call_frac: 0.2,
            retag_frac: 0.1,
            tagged_frac: 0.7,
            shared_frac: 0.0,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build_workload(&profile(), 10, 42, 0);
        let b = build_workload(&profile(), 10, 42, 0);
        assert_eq!(a.program.insts(), b.program.insts());
        let c = build_workload(&profile(), 10, 43, 0);
        assert_ne!(
            a.program.insts(),
            c.program.insts(),
            "different seed, different code"
        );
    }

    #[test]
    fn workload_runs_to_completion_under_every_mitigation() {
        for m in Mitigation::all() {
            let w = build_workload(&profile(), 5, 7, 0);
            let mut sys = build_system(&SimConfig::table2(), w.program.clone(), m);
            w.setup.apply(&mut sys);
            let r = sys.run(5_000_000);
            assert_eq!(r.exit, RunExit::Halted, "{m} must run the workload cleanly");
            assert!(r.committed() > 100);
        }
    }

    #[test]
    fn iteration_counts_must_be_positive_u32s() {
        assert_eq!(parse_iterations("1"), Ok(1));
        assert_eq!(parse_iterations("4294967295"), Ok(u32::MAX));
        for bad in ["0", "-1", "4294967296", "1.5", "", " 25", "x"] {
            assert!(parse_iterations(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_is_refused() {
        build_workload(&profile(), 0, 7, 0);
    }

    #[test]
    fn committed_instructions_scale_with_iterations() {
        let w5 = build_workload(&profile(), 5, 7, 0);
        let w20 = build_workload(&profile(), 20, 7, 0);
        let run = |w: &Workload| {
            let mut sys = sas_pipeline::System::single_core(
                CoreConfig::table2(),
                MemConfig::default(),
                w.program.clone(),
                Box::new(NoPolicy),
            );
            w.setup.apply(&mut sys);
            sys.run(10_000_000).committed()
        };
        let c5 = run(&w5);
        let c20 = run(&w20);
        assert!(
            c20 > c5 * 3,
            "4x iterations should give ~4x instructions ({c5} vs {c20})"
        );
    }

    #[test]
    fn tagged_arrays_do_not_fault() {
        // Every tagged access in generated code must carry a matching key.
        let mut p = profile();
        p.tagged_frac = 1.0;
        p.retag_frac = 0.3;
        let w = build_workload(&p, 10, 99, 0);
        let mut sys = build_system(
            &SimConfig::table2(),
            w.program.clone(),
            Mitigation::SpecAsan,
        );
        w.setup.apply(&mut sys);
        let r = sys.run(10_000_000);
        assert_eq!(r.exit, RunExit::Halted, "tag-clean workload must not fault");
    }

    #[test]
    fn estimate_tracks_reality_loosely() {
        let w = build_workload(&profile(), 50, 3, 0);
        let mut sys = build_system(&SimConfig::table2(), w.program.clone(), Mitigation::Unsafe);
        w.setup.apply(&mut sys);
        let r = sys.run(10_000_000);
        let actual = r.committed() as f64;
        let est = (w.approx_insts_per_iter * 50) as f64;
        assert!(
            actual / est > 0.3 && actual / est < 3.0,
            "estimate {est} vs actual {actual}"
        );
    }
}
