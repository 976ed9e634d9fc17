//! End-to-end policy tests: a tagged Spectre-v1 gadget (Listing 1) run under
//! every mitigation, checking both the security outcome (does the transient
//! secret-dependent probe line appear in the cache?) and liveness (benign
//! code still runs and architectural results are exact).

use sas_isa::{Cond, Operand, Program, ProgramBuilder, Reg, TagNibble, VirtAddr};
use sas_pipeline::{RunExit, System};
use specasan::{build_system, Mitigation, SimConfig};

const ARRAY1: u64 = 0x2000; // tagged 0x3, 16 bytes
const SECRET_ADDR: u64 = 0x2100; // tagged 0x9
const SECRET: u64 = 0x53;
const SIZE_ADDR: u64 = 0x7000; // array1_size = 8 (untagged)
const PROBE: u64 = 0x1_0000; // probe array (untagged)
const OOB_OFFSET: u64 = SECRET_ADDR - ARRAY1;

/// Listing 1's gadget, staged the way real PoCs mistrain a victim branch:
///
/// 1. *Train*: 12 fast in-bounds executions of the bounds check teach the
///    PHT "in bounds" (not taken).
/// 2. *Set up*: flush the bounds variable so the attack-run check resolves
///    slowly (a wide speculation window).
/// 3. *Attack*: a single out-of-bounds run whose bounds-check branch sits at
///    a PHT-aliasing PC (same index mod PHT size), so it inherits the
///    trained prediction and speculatively enters the gadget.
fn spectre_v1_program() -> Program {
    let pht = sas_pipeline::CoreConfig::table2().pht_entries;
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X9, SIZE_ADDR);
    // Tagged pointer to array1 (key 0x3).
    asm.mov_imm64(Reg::X2, VirtAddr::new(ARRAY1).with_key(TagNibble::new(0x3)).raw());
    asm.mov_imm64(Reg::X3, PROBE);
    // Victim warm-up: the victim legitimately touches its secret (with the
    // matching key 0x9), so the secret's line is cached — the standard
    // Spectre-v1 situation where the transient ACCESS is an L1 hit.
    asm.mov_imm64(Reg::X11, VirtAddr::new(SECRET_ADDR).with_key(TagNibble::new(0x9)).raw());
    asm.ldrb(Reg::X12, Reg::X11, 0);

    // --- phase 1: training (everything cached, branch resolves fast) -----
    asm.movz(Reg::X10, 12, 0); // countdown
    asm.movz(Reg::X0, 0, 0); // in-bounds index
    let top = asm.here();
    asm.ldr(Reg::X1, Reg::X9, 0);
    asm.cmp(Reg::X0, Operand::reg(Reg::X1));
    let train_branch_pc = asm.here();
    let skip = asm.new_label();
    asm.b_cond(Cond::Hs, skip);
    asm.ldrb_idx(Reg::X5, Reg::X2, Reg::X0); // ACCESS (in bounds)
    asm.lsl(Reg::X6, Reg::X5, Operand::imm(6)); // USE
    asm.ldrb_idx(Reg::X8, Reg::X3, Reg::X6); // TRANSMIT
    asm.bind(skip);
    asm.sub(Reg::X10, Reg::X10, Operand::imm(1));
    asm.cbnz_idx(Reg::X10, top);

    // --- phase 2: widen the window -----------------------------------------
    asm.flush(Reg::X9, 0); // bounds variable now misses to DRAM

    // --- phase 3: one out-of-bounds pass through an aliased branch -------
    // Pad first (the nop stream also guarantees the flush has committed
    // before the bounds load issues), so that the attack branch — 3
    // instructions after the padding — aliases the trained PHT counter.
    while (asm.here() + 3) % pht != train_branch_pc % pht {
        asm.nop();
    }
    asm.mov_imm64(Reg::X0, OOB_OFFSET);
    asm.ldr(Reg::X1, Reg::X9, 0); // slow
    asm.cmp(Reg::X0, Operand::reg(Reg::X1));
    let end = asm.new_label();
    asm.b_cond(Cond::Hs, end); // inherits "not taken" -> speculates into gadget
    asm.ldrb_idx(Reg::X5, Reg::X2, Reg::X0); // ACCESS: array1[OOB] = secret
    asm.lsl(Reg::X6, Reg::X5, Operand::imm(6)); // USE
    asm.ldrb_idx(Reg::X8, Reg::X3, Reg::X6); // TRANSMIT
    asm.bind(end);
    asm.halt();
    asm.build().unwrap()
}

fn run_gadget(mitigation: Mitigation) -> (System, RunExit) {
    let mut sys = build_system(&SimConfig::table2(), spectre_v1_program(), mitigation);
    let mem = sys.mem_mut();
    mem.write_arch(VirtAddr::new(SIZE_ADDR), 8, 8);
    mem.write_arch(VirtAddr::new(ARRAY1), 1, 1); // array1[0] = 1
    mem.write_arch(VirtAddr::new(SECRET_ADDR), 1, SECRET);
    mem.tags.set_range(VirtAddr::new(ARRAY1), 16, TagNibble::new(0x3));
    mem.tags.set_range(VirtAddr::new(SECRET_ADDR), 16, TagNibble::new(0x9));
    let r = sys.run(2_000_000);
    let exit = r.exit.clone();
    (sys, exit)
}

fn secret_line_cached(sys: &System) -> bool {
    sys.mem().is_cached(0, VirtAddr::new(PROBE + (SECRET << 6)))
}

#[test]
fn baseline_leaks_the_secret() {
    let (sys, exit) = run_gadget(Mitigation::Unsafe);
    assert_eq!(exit, RunExit::Halted);
    assert!(secret_line_cached(&sys), "unprotected baseline must leak");
}

#[test]
fn mte_only_does_not_stop_the_transient_leak() {
    // Architectural MTE checks at commit; the transient access is squashed
    // before commit, so no fault — and the trace remains (§2.3: MTE does not
    // limit speculative accesses).
    let (sys, exit) = run_gadget(Mitigation::MteOnly);
    assert_eq!(exit, RunExit::Halted, "squashed access must not fault");
    assert!(secret_line_cached(&sys), "plain MTE leaves the speculative leak open");
}

#[test]
fn specasan_blocks_the_leak_without_faulting() {
    let (sys, exit) = run_gadget(Mitigation::SpecAsan);
    assert_eq!(exit, RunExit::Halted, "misspeculation squashes; no fault is raised");
    assert!(!secret_line_cached(&sys), "SpecASan must suppress the transient fill");
    // The mechanism actually fired: at least one unsafe speculative access.
    assert!(sys.core(0).stats.unsafe_spec_accesses >= 1);
    // And the suppression happened in the memory system.
    assert!(sys.mem().stats().suppressed_fills >= 1);
}

#[test]
fn fence_blocks_the_leak() {
    let (sys, exit) = run_gadget(Mitigation::Fence);
    assert_eq!(exit, RunExit::Halted);
    assert!(!secret_line_cached(&sys), "barriers delay the ACCESS stage");
}

#[test]
fn stt_blocks_the_transmission() {
    let (sys, exit) = run_gadget(Mitigation::Stt);
    assert_eq!(exit, RunExit::Halted);
    assert!(!secret_line_cached(&sys), "STT delays the tainted-address transmit load");
}

#[test]
fn ghostminion_hides_the_fill() {
    let (sys, exit) = run_gadget(Mitigation::GhostMinion);
    assert_eq!(exit, RunExit::Halted);
    assert!(!secret_line_cached(&sys), "ghost fills are dropped at squash");
    assert!(sys.mem().stats().ghost_drops > 0, "squash must roll ghost state back");
}

#[test]
fn specasan_cfi_blocks_the_leak_too() {
    let (sys, exit) = run_gadget(Mitigation::SpecAsanCfi);
    assert_eq!(exit, RunExit::Halted);
    assert!(!secret_line_cached(&sys));
}

#[test]
fn spec_cfi_alone_does_not_stop_spectre_v1() {
    // SpecCFI validates control flow; Spectre-v1 uses a direct conditional
    // branch, so the leak persists (Table 1: SpecCFI is not a PHT defense).
    let (sys, exit) = run_gadget(Mitigation::SpecCfi);
    assert_eq!(exit, RunExit::Halted);
    assert!(secret_line_cached(&sys), "SpecCFI alone must not stop Spectre-v1");
}

#[test]
fn in_bounds_tagged_accesses_commit_under_specasan() {
    // The benign part of the gadget (12 in-bounds passes) must run to
    // completion with exact architectural results under SpecASan.
    let (sys, exit) = run_gadget(Mitigation::SpecAsan);
    assert_eq!(exit, RunExit::Halted);
    assert_eq!(sys.core(0).reg(Reg::X10), 0, "all 12 training iterations committed");
    // The last committed ACCESS value is array1[0] = 1 (the OOB access of
    // the attack phase is squashed, so X5 keeps the training value).
    assert_eq!(sys.core(0).reg(Reg::X5), 1);
}

#[test]
fn specasan_overhead_is_small_on_the_benign_path() {
    // Figure 6's headline: SpecASan ~ baseline. Compare cycle counts of the
    // same gadget (dominated by benign iterations).
    let (base, _) = run_gadget(Mitigation::Unsafe);
    let (asan, _) = run_gadget(Mitigation::SpecAsan);
    let b = base.core(0).stats.cycles as f64;
    let a = asan.core(0).stats.cycles as f64;
    assert!(
        a / b < 1.15,
        "SpecASan should be within 15% of baseline on benign code: {a} vs {b}"
    );
}

#[test]
fn fence_overhead_dwarfs_specasan() {
    let (fence, _) = run_gadget(Mitigation::Fence);
    let (asan, _) = run_gadget(Mitigation::SpecAsan);
    let f = fence.core(0).stats.cycles as f64;
    let a = asan.core(0).stats.cycles as f64;
    assert!(f > a, "barriers must cost more than SpecASan ({f} vs {a})");
}

#[test]
fn trace_records_the_figure5_story() {
    // With telemetry enabled, the SpecASan run of the Spectre-v1 gadget's
    // timeline holds the Figure 5 sequence: an unsafe tag check whose data
    // the TSH withholds (SSA=0), and the squash that erases the access.
    let mut sys = build_system(&SimConfig::table2(), spectre_v1_program(), Mitigation::SpecAsan);
    sys.enable_telemetry(1024, 500_000);
    let mem = sys.mem_mut();
    mem.write_arch(VirtAddr::new(SIZE_ADDR), 8, 8);
    mem.write_arch(VirtAddr::new(ARRAY1), 1, 1);
    mem.write_arch(VirtAddr::new(SECRET_ADDR), 1, SECRET);
    mem.tags.set_range(VirtAddr::new(ARRAY1), 16, TagNibble::new(0x3));
    mem.tags.set_range(VirtAddr::new(SECRET_ADDR), 16, TagNibble::new(0x9));
    sys.run(2_000_000);

    let timeline = sys.timeline(0).expect("telemetry is enabled");
    assert_eq!(timeline.dropped(), 0, "the whole run fits the timeline");
    let blocked = timeline.records().iter().find(|r| r.unsafe_block.is_some());
    let r = blocked.expect("the TSH block (tcs=!S, SSA=0) must be recorded");
    let block = r.unsafe_block.unwrap();
    assert!(r.issue.is_some_and(|i| i <= block), "a block follows its issue: {r:?}");
    assert_eq!(r.commit, None, "the unsafe speculative access never commits: {r:?}");
    assert!(r.squashed.is_some_and(|q| q > block), "the squash erases it later: {r:?}");
}

#[test]
fn committed_oob_access_faults_under_specasan() {
    // A *non-speculative* tag-mismatching access is a genuine memory-safety
    // violation: SpecASan (like MTE) raises a tag-check fault.
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X2, VirtAddr::new(ARRAY1).with_key(TagNibble::new(0x3)).raw());
    asm.ldrb(Reg::X5, Reg::X2, OOB_OFFSET as i64); // unconditional OOB
    asm.halt();
    let mut sys = build_system(&SimConfig::table2(), asm.build().unwrap(), Mitigation::SpecAsan);
    let mem = sys.mem_mut();
    mem.tags.set_range(VirtAddr::new(ARRAY1), 16, TagNibble::new(0x3));
    mem.tags.set_range(VirtAddr::new(SECRET_ADDR), 16, TagNibble::new(0x9));
    let r = sys.run(100_000);
    match r.exit {
        RunExit::Faulted(f) => assert_eq!(f.kind, sas_pipeline::FaultKind::TagCheck),
        other => panic!("expected tag-check fault, got {other:?}"),
    }
}

#[test]
fn all_mitigations_preserve_functional_results() {
    // A compute kernel with branches, loads and stores must produce the same
    // architectural result under every policy.
    fn kernel() -> Program {
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X2, 0x4000);
        asm.movz(Reg::X0, 0, 0);
        asm.movz(Reg::X1, 0, 0);
        let top = asm.here();
        asm.str_idx(Reg::X0, Reg::X2, Reg::X1); // mem[0x4000 + i] = i (8B strided below)
        asm.ldr_idx(Reg::X4, Reg::X2, Reg::X1);
        asm.add(Reg::X0, Reg::X0, Operand::reg(Reg::X4));
        asm.add(Reg::X1, Reg::X1, Operand::imm(8));
        asm.cmp(Reg::X1, Operand::imm(160));
        asm.b_cond_idx(Cond::Lo, top);
        asm.halt();
        asm.build().unwrap()
    }
    let mut results = Vec::new();
    for m in Mitigation::all() {
        let mut sys = build_system(&SimConfig::table2(), kernel(), m);
        let r = sys.run(2_000_000);
        assert_eq!(r.exit, RunExit::Halted, "{m} must halt");
        results.push((m, sys.core(0).reg(Reg::X0)));
    }
    let expect = results[0].1;
    for (m, v) in results {
        assert_eq!(v, expect, "{m} diverged architecturally");
    }
}
