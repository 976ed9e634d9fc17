//! End-to-end tests of the out-of-order engine: functional correctness under
//! speculation, squash recovery, forwarding, and the transient side effects
//! that the attacks (and SpecASan) depend on.

use sas_isa::{AmoOp, BtiKind, Cond, Operand, Program, ProgramBuilder, Reg, TagNibble, VirtAddr};
use sas_mem::MemConfig;
use sas_pipeline::{CoreConfig, NoPolicy, RunExit, System};

fn run_single(program: Program) -> System {
    let mut sys =
        System::single_core(CoreConfig::table2(), MemConfig::default(), program, Box::new(NoPolicy));
    let r = sys.run(1_000_000);
    assert_eq!(r.exit, RunExit::Halted, "program must halt cleanly: {:?}", r.exit);
    sys
}

#[test]
fn straight_line_arithmetic() {
    let mut asm = ProgramBuilder::new();
    asm.movz(Reg::X1, 6, 0);
    asm.movz(Reg::X2, 7, 0);
    asm.mul(Reg::X3, Reg::X1, Operand::reg(Reg::X2));
    asm.add(Reg::X3, Reg::X3, Operand::imm(100));
    asm.lsl(Reg::X4, Reg::X3, Operand::imm(1));
    asm.halt();
    let sys = run_single(asm.build().unwrap());
    assert_eq!(sys.core(0).reg(Reg::X3), 142);
    assert_eq!(sys.core(0).reg(Reg::X4), 284);
}

#[test]
fn mov_imm64_materialises_large_constant() {
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X5, 0xDEAD_BEEF_CAFE_F00D);
    asm.halt();
    let sys = run_single(asm.build().unwrap());
    assert_eq!(sys.core(0).reg(Reg::X5), 0xDEAD_BEEF_CAFE_F00D);
}

#[test]
fn counted_loop_sums_correctly() {
    // X1 = sum(1..=10) = 55
    let mut asm = ProgramBuilder::new();
    asm.movz(Reg::X0, 10, 0); // i = 10
    asm.movz(Reg::X1, 0, 0); // sum = 0
    let top = asm.here();
    asm.add(Reg::X1, Reg::X1, Operand::reg(Reg::X0));
    asm.sub(Reg::X0, Reg::X0, Operand::imm(1));
    asm.cbnz_idx(Reg::X0, top);
    asm.halt();
    let sys = run_single(asm.build().unwrap());
    assert_eq!(sys.core(0).reg(Reg::X1), 55);
}

#[test]
fn loads_and_stores_roundtrip() {
    let mut asm = ProgramBuilder::new();
    asm.data_segment(0x1000, vec![0xAA, 0xBB, 0xCC, 0xDD, 0, 0, 0, 0]);
    asm.mov_imm64(Reg::X2, 0x1000);
    asm.ldr(Reg::X3, Reg::X2, 0);
    asm.mov_imm64(Reg::X4, 0x1234_5678);
    asm.str(Reg::X4, Reg::X2, 8);
    asm.ldr(Reg::X5, Reg::X2, 8);
    asm.halt();
    let program = asm.build().unwrap();

    let mut sys =
        System::single_core(CoreConfig::table2(), MemConfig::default(), program, Box::new(NoPolicy));
    let r = sys.run(1_000_000);
    assert_eq!(r.exit, RunExit::Halted);
    assert_eq!(sys.core(0).reg(Reg::X3), 0xDDCC_BBAA);
    assert_eq!(sys.core(0).reg(Reg::X5), 0x1234_5678);
    assert_eq!(sys.mem().read_arch(VirtAddr::new(0x1008), 8), 0x1234_5678);
}

#[test]
fn store_to_load_forwarding_returns_latest_value() {
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X2, 0x2000);
    asm.movz(Reg::X3, 1, 0);
    asm.str(Reg::X3, Reg::X2, 0);
    asm.movz(Reg::X4, 2, 0);
    asm.str(Reg::X4, Reg::X2, 0); // youngest store wins
    asm.ldr(Reg::X5, Reg::X2, 0);
    asm.halt();
    let sys = run_single(asm.build().unwrap());
    assert_eq!(sys.core(0).reg(Reg::X5), 2);
    assert!(sys.core(0).stats.stl_forwards >= 1, "forwarding should have happened");
}

#[test]
fn branch_misprediction_recovers_architecturally() {
    // Alternate taken/not-taken so the predictor keeps guessing wrong
    // somewhere, and verify the architectural result is exact.
    // for i in 0..20 { if i % 2 == 0 { x += 1 } else { x += 100 } }
    let mut asm = ProgramBuilder::new();
    asm.movz(Reg::X0, 0, 0); // i
    asm.movz(Reg::X1, 0, 0); // x
    let top = asm.here();
    asm.and(Reg::X2, Reg::X0, Operand::imm(1));
    let odd = asm.new_label();
    let next = asm.new_label();
    asm.cbnz(Reg::X2, odd);
    asm.add(Reg::X1, Reg::X1, Operand::imm(1));
    asm.b(next);
    asm.bind(odd);
    asm.add(Reg::X1, Reg::X1, Operand::imm(100));
    asm.bind(next);
    asm.add(Reg::X0, Reg::X0, Operand::imm(1));
    asm.cmp(Reg::X0, Operand::imm(20));
    asm.b_cond_idx(Cond::Lo, top);
    asm.halt();
    let sys = run_single(asm.build().unwrap());
    assert_eq!(sys.core(0).reg(Reg::X1), 10 + 10 * 100);
}

/// Builds the transient-leak training loop shared by the next two tests:
/// 13 iterations; the bounds branch is in-bounds for i < 12 and goes
/// out-of-bounds on the last pass, leaving a wrong-path probe touch.
fn transient_gadget(probe_base: u64, with_barrier: bool) -> Program {
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X9, 0x7000); // &limit (value 8)
    asm.mov_imm64(Reg::X3, probe_base);
    asm.movz(Reg::X10, 0, 0); // i
    let top = asm.here();
    asm.flush(Reg::X3, 0); // keep the probe line cold
    asm.flush(Reg::X9, 0); // keep the limit load slow (wide window)
    // X0 = (i / 12) * 100: 0 while training, 100 on the final iteration.
    asm.udiv(Reg::X0, Reg::X10, Operand::imm(12));
    asm.mul(Reg::X0, Reg::X0, Operand::imm(100));
    asm.ldr(Reg::X1, Reg::X9, 0); // limit (slow)
    asm.cmp(Reg::X0, Operand::reg(Reg::X1));
    let skip = asm.new_label();
    asm.b_cond(Cond::Hs, skip); // out-of-bounds => skip body
    if with_barrier {
        asm.spec_barrier();
    }
    asm.ldrb(Reg::X5, Reg::X3, 0); // body touches the probe line
    asm.bind(skip);
    asm.add(Reg::X10, Reg::X10, Operand::imm(1));
    asm.cmp(Reg::X10, Operand::imm(13));
    asm.b_cond_idx(Cond::Lo, top);
    asm.halt();
    asm.build().unwrap()
}

#[test]
fn wrong_path_load_leaves_cache_trace_without_mitigation() {
    let probe_base: u64 = 0x8000;
    let mut sys = System::single_core(
        CoreConfig::table2(),
        MemConfig::default(),
        transient_gadget(probe_base, false),
        Box::new(NoPolicy),
    );
    sys.mem_mut().write_arch(VirtAddr::new(0x7000), 8, 8); // limit = 8
    let r = sys.run(1_000_000);
    assert_eq!(r.exit, RunExit::Halted);
    // The final pass skipped the body architecturally, yet the probe line is
    // cached: a transient trace.
    assert!(
        sys.mem().is_cached(0, VirtAddr::new(probe_base)),
        "wrong-path load must leave a cache trace under the unsafe baseline"
    );
}

#[test]
fn spec_barrier_stops_wrong_path_loads() {
    // Same gadget with CSDB before the body load: the transient load must
    // not issue, so no trace.
    let probe_base: u64 = 0x8000;
    let mut sys = System::single_core(
        CoreConfig::table2(),
        MemConfig::default(),
        transient_gadget(probe_base, true),
        Box::new(NoPolicy),
    );
    sys.mem_mut().write_arch(VirtAddr::new(0x7000), 8, 8);
    let r = sys.run(1_000_000);
    assert_eq!(r.exit, RunExit::Halted);
    assert!(
        !sys.mem().is_cached(0, VirtAddr::new(probe_base)),
        "CSDB must stop the wrong-path load from touching the cache"
    );
}

#[test]
fn indirect_call_and_return() {
    let mut asm = ProgramBuilder::new();
    let func = asm.named_label("double");
    // main: X0 = 21; call double; X1 = X0; halt
    asm.movz(Reg::X0, 21, 0);
    asm.bl(func);
    asm.mov(Reg::X1, Reg::X0);
    asm.halt();
    // double: X0 *= 2; ret
    asm.bind(func);
    asm.bti(BtiKind::Call);
    asm.add(Reg::X0, Reg::X0, Operand::reg(Reg::X0));
    asm.ret();
    let sys = run_single(asm.build().unwrap());
    assert_eq!(sys.core(0).reg(Reg::X1), 42);
}

#[test]
fn indirect_branch_through_register() {
    let mut asm = ProgramBuilder::new();
    let tgt = asm.named_label("target");
    asm.movz(Reg::X2, 0, 0);
    // Loop twice through the indirect branch so the BTB gets trained and
    // then used.
    let top = asm.here();
    asm.mov_imm64(Reg::X1, 0); // patched below
    asm.br(Reg::X1);
    asm.bind(tgt);
    asm.bti(BtiKind::Jump);
    asm.add(Reg::X2, Reg::X2, Operand::imm(5));
    asm.cmp(Reg::X2, Operand::imm(10));
    asm.b_cond_idx(Cond::Lo, top);
    asm.halt();
    let program = asm.build().unwrap();
    let target_idx = program.label("target").unwrap() as u64;

    // Rebuild with the real target constant.
    let mut asm = ProgramBuilder::new();
    let tgt = asm.named_label("target");
    asm.movz(Reg::X2, 0, 0);
    let top = asm.here();
    asm.mov_imm64(Reg::X1, target_idx);
    asm.br(Reg::X1);
    asm.bind(tgt);
    asm.bti(BtiKind::Jump);
    asm.add(Reg::X2, Reg::X2, Operand::imm(5));
    asm.cmp(Reg::X2, Operand::imm(10));
    asm.b_cond_idx(Cond::Lo, top);
    asm.halt();
    let sys = run_single(asm.build().unwrap());
    assert_eq!(sys.core(0).reg(Reg::X2), 10);
}

#[test]
fn memory_order_violation_is_replayed_correctly() {
    // A load after a store to the same address, where the store's address
    // arrives late (data dependency on a slow load): the load speculatively
    // bypasses, is violated, replays, and the final value is correct.
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X2, 0x3000); // address holding a pointer (0x4000)
    asm.mov_imm64(Reg::X6, 99);
    asm.ldr(Reg::X3, Reg::X2, 0); // slow: X3 = 0x4000 (cold miss)
    asm.str(Reg::X6, Reg::X3, 0); // store 99 to [X3] — address late
    asm.mov_imm64(Reg::X4, 0x4000);
    asm.ldr(Reg::X5, Reg::X4, 0); // load from same address
    asm.halt();
    let program = asm.build().unwrap();
    let mut sys =
        System::single_core(CoreConfig::table2(), MemConfig::default(), program, Box::new(NoPolicy));
    sys.mem_mut().write_arch(VirtAddr::new(0x3000), 8, 0x4000);
    sys.mem_mut().write_arch(VirtAddr::new(0x4000), 8, 7);
    let r = sys.run(1_000_000);
    assert_eq!(r.exit, RunExit::Halted);
    assert_eq!(sys.core(0).reg(Reg::X5), 99, "the load must observe the older store");
}

#[test]
fn amo_add_is_atomic_and_returns_old_value() {
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X1, 0x5000);
    asm.movz(Reg::X2, 5, 0);
    asm.amo(AmoOp::Add, Reg::X3, Reg::X1, Reg::X2, Reg::XZR);
    asm.amo(AmoOp::Add, Reg::X4, Reg::X1, Reg::X2, Reg::XZR);
    asm.halt();
    let program = asm.build().unwrap();
    let mut sys =
        System::single_core(CoreConfig::table2(), MemConfig::default(), program, Box::new(NoPolicy));
    sys.mem_mut().write_arch(VirtAddr::new(0x5000), 8, 10);
    let r = sys.run(1_000_000);
    assert_eq!(r.exit, RunExit::Halted);
    assert_eq!(sys.core(0).reg(Reg::X3), 10);
    assert_eq!(sys.core(0).reg(Reg::X4), 15);
    assert_eq!(sys.mem().read_arch(VirtAddr::new(0x5000), 8), 20);
}

#[test]
fn mte_tag_instructions_roundtrip() {
    // IRG a pointer, STG the granule, LDG it back: keys must match.
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X1, 0x6000);
    asm.irg(Reg::X2, Reg::X1); // X2 = tagged pointer
    asm.stg(Reg::X2, 0); // lock the granule with X2's key
    asm.ldg(Reg::X3, Reg::X1); // X3 = X1 with the granule's lock as key
    asm.ldr(Reg::X4, Reg::X2, 0); // tagged load must succeed (tags match)
    asm.halt();
    let program = asm.build().unwrap();
    let mut sys = System::single_core(
        CoreConfig::table2(),
        MemConfig::default(),
        program,
        Box::new(sas_pipeline::MteOnlyPolicy),
    );
    sys.mem_mut().write_arch(VirtAddr::new(0x6000), 8, 77);
    let r = sys.run(1_000_000);
    assert_eq!(r.exit, RunExit::Halted, "matching tagged access must not fault");
    let x2 = VirtAddr::new(sys.core(0).reg(Reg::X2));
    let x3 = VirtAddr::new(sys.core(0).reg(Reg::X3));
    assert_ne!(x2.key(), TagNibble::ZERO, "IRG must draw a non-zero key");
    assert_eq!(x2.key(), x3.key(), "LDG must read back the STG'd lock");
    assert_eq!(sys.core(0).reg(Reg::X4), 77);
}

#[test]
fn mte_mismatch_faults_on_committed_path() {
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X1, 0x6000);
    asm.irg(Reg::X2, Reg::X1);
    asm.stg(Reg::X2, 0);
    asm.addg(Reg::X3, Reg::X2, 0, 1); // bump the key: now mismatched
    asm.ldr(Reg::X4, Reg::X3, 0); // must fault under MTE
    asm.halt();
    let program = asm.build().unwrap();
    let mut sys = System::single_core(
        CoreConfig::table2(),
        MemConfig::default(),
        program,
        Box::new(sas_pipeline::MteOnlyPolicy),
    );
    let r = sys.run(1_000_000);
    match r.exit {
        RunExit::Faulted(f) => {
            assert_eq!(f.kind, sas_pipeline::FaultKind::TagCheck);
        }
        other => panic!("expected a tag-check fault, got {other:?}"),
    }
}

#[test]
fn subg_tag_offset_at_granule_boundaries() {
    // Regression for the SUBG key computation, formerly written as
    // `wrapping_add(16 - (tag_offset % 16))` — an expression whose boundary
    // behaviour (tag_offset a multiple of 16) had to be confirmed rather
    // than read. It is now `TagNibble::wrapping_sub`; this pins the
    // boundary cases at 0, 16 and 32 through the pipeline, a committed-path
    // tag check, and the lockstep oracle.
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X1, 0x6000);
    asm.irg(Reg::X2, Reg::X1);
    asm.stg(Reg::X2, 0);
    asm.subg(Reg::X3, Reg::X2, 0, 0); // identity
    asm.subg(Reg::X4, Reg::X2, 16, 16); // key unchanged, address one granule down
    asm.subg(Reg::X5, Reg::X2, 0, 32); // key unchanged
    asm.subg(Reg::X6, Reg::X2, 0, 3); // key decremented by 3
    asm.ldr(Reg::X7, Reg::X3, 0); // matching key: must not fault
    asm.halt();
    let mut sys = System::single_core(
        CoreConfig::table2(),
        MemConfig::default(),
        asm.build().unwrap(),
        Box::new(sas_pipeline::MteOnlyPolicy),
    );
    sys.enable_oracle();
    let r = sys.run(1_000_000);
    assert_eq!(r.exit, RunExit::Halted, "granule-boundary SUBG must not fault: {:?}", r.exit);
    let x2 = VirtAddr::new(sys.core(0).reg(Reg::X2));
    let x4 = VirtAddr::new(sys.core(0).reg(Reg::X4));
    assert_eq!(sys.core(0).reg(Reg::X3), x2.raw(), "SUBG #0, #0 is the identity");
    assert_eq!(x4.key(), x2.key(), "tag_offset 16 wraps to the same key");
    assert_eq!(x4.untagged().raw(), x2.untagged().raw() - 16);
    assert_eq!(VirtAddr::new(sys.core(0).reg(Reg::X5)).key(), x2.key());
    assert_eq!(VirtAddr::new(sys.core(0).reg(Reg::X6)).key(), x2.key().wrapping_sub(3));
}

#[test]
fn commit_recording_without_consumer_stays_bounded() {
    // Regression: with commit recording on and nobody draining it (i.e. no
    // lockstep oracle attached), `Core::retired` grew one record per
    // committed instruction for the life of the run. The buffer is now
    // capped at RETIRED_CAP, with the overflow counted in
    // `stats.retired_dropped` instead of held in memory.
    use sas_mem::MemSystem;
    use sas_pipeline::{Core, RETIRED_CAP};
    use std::sync::Arc;

    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::X0, RETIRED_CAP as u64); // iterations: 2 commits each
    let top = asm.here();
    asm.sub(Reg::X0, Reg::X0, Operand::imm(1));
    asm.cbnz_idx(Reg::X0, top);
    asm.halt();
    let mut core =
        Core::new(0, CoreConfig::table2(), Arc::new(asm.build().unwrap()), Box::new(NoPolicy));
    core.set_record_commits(true);
    let mut mem = MemSystem::new(1, MemConfig::default());
    let mut cycle = 0;
    while !core.finished() && cycle < 10_000_000 {
        core.tick(&mut mem, cycle).unwrap();
        cycle += 1;
    }
    assert!(core.finished(), "loop must halt");
    assert!(core.stats.committed as usize > RETIRED_CAP, "run must overflow the record buffer");
    assert_eq!(core.stats.retired_dropped, core.stats.committed - RETIRED_CAP as u64);
    assert_eq!(core.take_retired().len(), RETIRED_CAP, "buffer must stop growing at the cap");
}

#[test]
fn two_cores_share_memory_through_amo() {
    // Both cores atomically add to a shared counter.
    fn worker(n: u16) -> Program {
        let mut asm = ProgramBuilder::new();
        asm.mov_imm64(Reg::X1, 0x5000);
        asm.movz(Reg::X2, 1, 0);
        asm.movz(Reg::X5, n, 0);
        let top = asm.here();
        asm.amo(AmoOp::Add, Reg::X3, Reg::X1, Reg::X2, Reg::XZR);
        asm.sub(Reg::X5, Reg::X5, Operand::imm(1));
        asm.cbnz_idx(Reg::X5, top);
        asm.halt();
        asm.build().unwrap()
    }
    let mut sys = System::multi_core(
        CoreConfig::table2(),
        MemConfig::default(),
        vec![(worker(50), Box::new(NoPolicy)), (worker(70), Box::new(NoPolicy))],
    );
    let r = sys.run(3_000_000);
    assert_eq!(r.exit, RunExit::Halted, "{:?}", r.exit);
    assert_eq!(sys.mem().read_arch(VirtAddr::new(0x5000), 8), 120);
}

#[test]
fn deadlock_detection_fires_on_infinite_loop() {
    let mut asm = ProgramBuilder::new();
    let top = asm.here();
    asm.b_idx(top); // while(true){}
    let program = asm.build().unwrap();
    let mut sys =
        System::single_core(CoreConfig::tiny(), MemConfig::default(), program, Box::new(NoPolicy));
    sys.set_deadlock_window(1_000);
    let r = sys.run(100_000);
    // An infinite branch loop commits branches forever, so it hits the cycle
    // limit rather than deadlock; both are acceptable non-hang outcomes.
    assert!(matches!(r.exit, RunExit::CycleLimit | RunExit::Deadlock(_)));
}

#[test]
fn ipc_is_plausible_for_ilp_heavy_code() {
    // Independent adds should reach an IPC well above 1 on an 8-wide core.
    let mut asm = ProgramBuilder::new();
    for _ in 0..200 {
        asm.add(Reg::X1, Reg::X1, Operand::imm(1));
        asm.add(Reg::X2, Reg::X2, Operand::imm(1));
        asm.add(Reg::X3, Reg::X3, Operand::imm(1));
        asm.add(Reg::X4, Reg::X4, Operand::imm(1));
    }
    asm.halt();
    let program = asm.build().unwrap();
    let mut sys =
        System::single_core(CoreConfig::table2(), MemConfig::default(), program, Box::new(NoPolicy));
    let r = sys.run(1_000_000);
    assert_eq!(r.exit, RunExit::Halted);
    let ipc = r.core_stats[0].ipc();
    assert!(ipc > 1.5, "8-wide core should exceed IPC 1.5 on independent adds, got {ipc:.2}");
    assert_eq!(sys.core(0).reg(Reg::X1), 200);
}
