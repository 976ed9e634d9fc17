//! Property tests for the commit-time CPI stack (PR 5 satellite).
//!
//! The attribution invariant: every counted cycle lands in exactly one CPI
//! bucket, so the buckets sum *exactly* to the core's cycle count — and the
//! mitigation-delay bucket is the same accounting as the stats-side
//! `total_delay_cycles()`, by construction. Both must hold for arbitrary
//! programs under every mitigation, telemetry on or off. The same file pins
//! quiescent skip-ahead against a run ticked every cycle.
//! A failing case prints its seed; `SAS_PTEST_SEED=<seed>` replays it.

use sas_isa::{Operand, Program, ProgramBuilder, Reg};
use sas_pipeline::{RunExit, System};
use sas_ptest::{check, gens};
use specasan::{build_system, Mitigation, SimConfig};

/// Cycle budget for a run to completion.
const MAX_CYCLES: u64 = 100_000_000;

/// A Table 2 machine running `program` under `m`.
fn build(program: &Program, m: Mitigation) -> System {
    build_system(&SimConfig::table2(), program.clone(), m)
}

/// Core 0's encoded state after running `program` under `m` up to cycle
/// `stop`, with telemetry sampled every `interval` cycles.
fn core_image(program: &Program, m: Mitigation, interval: u64, stop: u64) -> Vec<u8> {
    let mut sys = build(program, m);
    sys.enable_telemetry(interval, 4096);
    sys.run(stop);
    let mut e = sas_snap::Enc::new();
    sys.encode_core(0, &mut e);
    e.into_bytes()
}

/// CPI buckets sum exactly to `cycles`, and the mitigation-delay bucket
/// equals `total_delay_cycles()`, across random programs × all mitigations.
#[test]
fn cpi_buckets_sum_exactly_to_cycles_under_every_mitigation() {
    check("cpi_buckets_sum_exactly_to_cycles_under_every_mitigation", 24, |rng| {
        let program = gens::terminating_program(8..40).sample(rng);
        for m in Mitigation::all() {
            let r = build(&program, m).run(MAX_CYCLES);
            assert_eq!(r.exit, RunExit::Halted, "{m:?}");
            for (i, s) in r.core_stats.iter().enumerate() {
                assert_eq!(
                    s.cpi.total(),
                    s.cycles,
                    "{m:?} core {i}: CPI buckets must sum exactly to cycles\n{:?}",
                    s.cpi
                );
                assert_eq!(
                    s.cpi.mitigation_total(),
                    s.total_delay_cycles(),
                    "{m:?} core {i}: mitigation bucket must equal total_delay_cycles()"
                );
            }
        }
    });
}

/// End-to-end determinism: the same program produces bit-identical cycles,
/// CPI stack and retired-instruction stream on every run — telemetry on or
/// off, serial or on four concurrent threads — across every mitigation.
/// Interval-16 sampling only shortens quiescent skips (skips of up to 15
/// cycles still happen); the tick-by-tick reference is
/// `skip_ahead_matches_ticking_every_cycle_under_every_mitigation`.
#[test]
fn runs_are_deterministic_across_telemetry_and_concurrency() {
    check("runs_are_deterministic_across_telemetry_and_concurrency", 6, |rng| {
        let program = gens::terminating_program(8..32).sample(rng);
        for m in Mitigation::all() {
            let run_digest = |telemetry: bool| {
                let mut sys = build(&program, m);
                sys.core_mut(0).set_record_commits(true);
                if telemetry {
                    sys.enable_telemetry(16, 4096);
                }
                let r = sys.run(MAX_CYCLES);
                assert_eq!(r.exit, RunExit::Halted, "{m:?}");
                let cpi: Vec<_> = r.core_stats.iter().map(|s| s.cpi.clone()).collect();
                let retired = sys.core_mut(0).take_retired();
                (r.cycles, cpi, retired)
            };
            let base = run_digest(false);
            assert_eq!(base, run_digest(true), "{m:?}: telemetry must not change the run");
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..4).map(|_| s.spawn(|| run_digest(false))).collect();
                for h in handles {
                    let got = h.join().expect("worker must not panic");
                    assert_eq!(base, got, "{m:?}: concurrent runs must be bit-identical");
                }
            });
        }
    });
}

/// Quiescent skip-ahead is invisible: a plain run and an interval-1
/// telemetry run — which samples every cycle and so never skips — agree on
/// cycles, the full `CoreStats` (delay tables, CPI stack, restricted and
/// tainted counts), the memory statistics and the retired stream.
#[test]
fn skip_ahead_matches_ticking_every_cycle_under_every_mitigation() {
    check("skip_ahead_matches_ticking_every_cycle_under_every_mitigation", 16, |rng| {
        let program = gens::terminating_program(8..40).sample(rng);
        for m in Mitigation::all() {
            let run = |tick_every_cycle: bool| {
                let mut sys = build(&program, m);
                sys.core_mut(0).set_record_commits(true);
                if tick_every_cycle {
                    sys.enable_telemetry(1, 1);
                }
                let r = sys.run(MAX_CYCLES);
                assert_eq!(r.exit, RunExit::Halted, "{m:?}");
                let retired = sys.core_mut(0).take_retired();
                (r.cycles, r.core_stats, r.mem_stats, retired)
            };
            assert_eq!(run(false), run(true), "{m:?}: skip-ahead must equal ticking every cycle");
        }
    });
}

/// Skip-ahead leaves no trace in the machine state either: stopped at the
/// same cycle, a core that skipped quiescent windows (interval-4096
/// sampling) encodes byte-identically to one ticked every cycle (interval
/// 1).
#[test]
fn skipped_windows_leave_core_state_identical() {
    check("skipped_windows_leave_core_state_identical", 32, |rng| {
        let program = gens::terminating_program(8..40).sample(rng);
        for m in Mitigation::all() {
            let total = build(&program, m).run(MAX_CYCLES).cycles;
            for stop in [total / 4, total / 2, 3 * total / 4] {
                assert!(
                    core_image(&program, m, 1, stop) == core_image(&program, m, 4096, stop),
                    "{m:?}: core state differs at {stop}"
                );
            }
        }
    });
}

/// A load whose first issue attempt falls in a skipped window latches its
/// address there, as that attempt would have. The load is ready at
/// dispatch, held by the fence policy behind a store whose address waits on
/// a cold miss, and the machine goes quiet the cycle after: 29 adds on the
/// miss fill the issue queue, so `HALT` cannot dispatch.
#[test]
fn skipped_first_attempt_latches_the_load_address() {
    const BASE: u64 = 0x4000;
    let mut asm = ProgramBuilder::new();
    asm.mov_imm64(Reg::x(6), BASE);
    asm.ldr(Reg::x(1), Reg::x(6), 0x100);
    asm.and(Reg::x(2), Reg::x(1), Operand::imm(0));
    asm.str_idx(Reg::x(3), Reg::x(6), Reg::x(2));
    for _ in 0..29 {
        asm.add(Reg::x(4), Reg::x(1), Operand::imm(1));
    }
    asm.ldr(Reg::x(5), Reg::x(6), 8);
    asm.halt();
    asm.data_segment(BASE, vec![0; 0x200]);
    let program = asm.build().expect("assembles");
    let m = Mitigation::Fence;
    let total = build(&program, m).run(MAX_CYCLES).cycles;
    for stop in 1..total {
        assert!(
            core_image(&program, m, 1, stop) == core_image(&program, m, 4096, stop),
            "core state differs at {stop}"
        );
    }
}

/// The invariants are telemetry-independent: enabling timelines, histograms
/// and gauge sampling must not perturb the attribution (or the run at all).
#[test]
fn cpi_attribution_is_identical_with_telemetry_enabled() {
    check("cpi_attribution_is_identical_with_telemetry_enabled", 12, |rng| {
        let program = gens::terminating_program(8..32).sample(rng);
        for m in [Mitigation::Unsafe, Mitigation::SpecAsan, Mitigation::Stt] {
            let p = build(&program, m).run(MAX_CYCLES);
            let mut traced = build(&program, m);
            traced.enable_telemetry(16, 4096);
            let t = traced.run(MAX_CYCLES);
            assert!(p.exit == RunExit::Halted && t.exit == RunExit::Halted, "{m:?}");
            assert_eq!(p.cycles, t.cycles, "{m:?}: telemetry changed timing");
            for (ps, ts) in p.core_stats.iter().zip(&t.core_stats) {
                assert_eq!(ps.cpi, ts.cpi, "{m:?}: telemetry changed the CPI stack");
                assert_eq!(ts.cpi.total(), ts.cycles, "{m:?}: sum invariant with telemetry");
            }
        }
    });
}
