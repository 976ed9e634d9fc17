//! Microbenchmarks of the substrate hot paths: tag checks, cache lookups,
//! LFB operations and whole-pipeline simulation throughput, timed by the
//! internal harness (`sas_bench::timing`).

use sas_bench::timing::run_case;
use sas_isa::{Cond, Operand, Program, ProgramBuilder, Reg, TagNibble, VirtAddr};
use sas_mem::{Cache, CacheConfig, FillMode, LineFillBuffer, MemConfig, MemSystem};
use sas_mte::{check_access, TagStorage};
use sas_pipeline::{CoreConfig, CoreStats, DelayCause, NoPolicy, System};
use std::collections::HashMap;
use std::hint::black_box;

fn bench_tag_check() {
    let mut tags = TagStorage::new();
    tags.set_range(VirtAddr::new(0x1000), 4096, TagNibble::new(0x5));
    let ptr = VirtAddr::new(0x1040).with_key(TagNibble::new(0x5));
    run_case("micro", "mte/check_access", || check_access(black_box(&tags), black_box(ptr), 8));
}

fn bench_cache() {
    let mut cache = Cache::new(CacheConfig::l1d());
    for i in 0..512u64 {
        cache.install(VirtAddr::new(i * 64), [TagNibble::new(1); 4], 0, false);
    }
    run_case("micro", "cache/probe_hit", || cache.probe(black_box(VirtAddr::new(0x40 * 7))));
    let p = VirtAddr::new(0x40 * 7).with_key(TagNibble::new(1));
    run_case("micro", "cache/tag_check", || cache.tag_check(black_box(p)));
}

fn bench_lfb() {
    let mut lfb = LineFillBuffer::new(16, 2);
    for i in 0..16u64 {
        lfb.allocate(VirtAddr::new(i * 64), 0, 100, [TagNibble::ZERO; 4], [0u8; 64]);
    }
    run_case("micro", "lfb/find", || lfb.find(black_box(VirtAddr::new(0x40 * 5))));
}

fn bench_mem_load() {
    let mut mem = MemSystem::new(1, MemConfig::default());
    // Warm a line.
    let r = mem.load(0, VirtAddr::new(0x2000), 8, 0, FillMode::Install, false).unwrap();
    mem.load(0, VirtAddr::new(0x2000), 8, r.latency + 1, FillMode::Install, false).unwrap();
    let mut cycle = 1000;
    run_case("micro", "mem/load_l1_hit", || {
        cycle += 1;
        mem.load(0, black_box(VirtAddr::new(0x2000)), 8, cycle, FillMode::SuppressIfUnsafe, false).unwrap()
    });
}

fn bench_stats() {
    // The delay-accounting hot path: every stalled uop charges a cause each
    // cycle. Typed `DelayTable` indexing (an array index) vs the pre-PR-5
    // scheme of a `HashMap<String, u64>` keyed by `format!("{cause:?}")`.
    run_case("micro", "stats/record_delay_typed", || {
        let mut s = CoreStats::default();
        for _ in 0..64 {
            for c in DelayCause::ALL {
                s.record_delay(c, 1);
            }
        }
        s.total_delay_cycles()
    });
    run_case("micro", "stats/record_delay_string_keys", || {
        let mut cycles: HashMap<String, u64> = HashMap::new();
        let mut events: HashMap<String, u64> = HashMap::new();
        for _ in 0..64 {
            for c in DelayCause::ALL {
                *cycles.entry(format!("{c:?}")).or_insert(0) += 1;
                *events.entry(format!("{c:?}")).or_insert(0) += 1;
            }
        }
        cycles.values().sum::<u64>()
    });
}

fn loop_program() -> Program {
    let mut asm = ProgramBuilder::new();
    asm.movz(Reg::X0, 250, 0);
    let top = asm.here();
    asm.add(Reg::X1, Reg::X1, Operand::imm(1));
    asm.sub(Reg::X0, Reg::X0, Operand::imm(1));
    asm.cmp(Reg::X0, Operand::imm(0));
    asm.b_cond_idx(Cond::Ne, top);
    asm.halt();
    asm.build().unwrap()
}

fn bench_pipeline() {
    // Whole-machine throughput: simulated instructions per host second on a
    // small loop. Telemetry is disabled by default; the second case enables
    // it so any overhead of the default-off path shows up as a delta here.
    run_case("micro", "pipeline/loop_1k_insts", || {
        let mut sys = System::single_core(
            CoreConfig::table2(),
            MemConfig::default(),
            loop_program(),
            Box::new(NoPolicy),
        );
        black_box(sys.run(100_000))
    });
    run_case("micro", "pipeline/loop_1k_telemetry", || {
        let mut sys = System::single_core(
            CoreConfig::table2(),
            MemConfig::default(),
            loop_program(),
            Box::new(NoPolicy),
        );
        sys.enable_telemetry(64, 4096);
        black_box(sys.run(100_000))
    });
}

fn main() {
    println!("== Microbenchmarks (internal timing harness) ==");
    bench_tag_check();
    bench_cache();
    bench_lfb();
    bench_mem_load();
    bench_stats();
    bench_pipeline();
}
