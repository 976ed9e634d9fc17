//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. *Selective delay* vs delaying **every** tagged speculative load —
//!    quantifies the benefit of issuing first and delaying only mismatches.
//! 2. *Parallel vs serial tag fetch* at the memory controller (§3.3.4's
//!    "two separate memory access requests ... simultaneously").
//! 3. *LFB tagging* on/off — what the tagged line-fill buffer alone buys
//!    against MDS sampling.
//! 4. *Random vs deterministic tagging* — adjacent-overflow detection rates
//!    of the heap allocator policies (§6's tag-collision limitation).
//! 5. *Secure prefetching* (§6's future-work direction) — a conventional
//!    stride prefetcher crosses colour boundaries and leaks; the tag-checked
//!    variant stops at them, at negligible cost.
//! 6. *Tag-hint responses* (§3.3.4's unimplemented design option) — encoding
//!    the line's tags in the memory response recovers most of the cost of a
//!    serialized tag fetch.

use sas_attacks::{mds::Ridl, GadgetFlavor, TransientAttack};
use sas_bench::{bench_iterations, geomean, jsonl, run_spec, SEED};
use sas_isa::TagNibble;
use sas_mem::FillMode;
use sas_mte::{check_access, TagCheckOutcome, TagStorage, TaggedHeap, TaggingPolicy};
use sas_pipeline::{DelayCause, IssueDecision, LoadIssueCtx, MitigationPolicy, RunExit};
use sas_workloads::{build_workload, spec_suite};
use specasan::{Mitigation, SimConfig};

/// Non-selective strawman: every tagged speculative load waits for
/// speculation to resolve (what SpecASan would cost *without* the
/// check-in-flight selective delay).
#[derive(Debug, Default)]
struct DelayAllTagged;

impl MitigationPolicy for DelayAllTagged {
    fn name(&self) -> &'static str {
        "delay-all-tagged"
    }

    fn on_load_issue(&self, ctx: &LoadIssueCtx) -> IssueDecision {
        if (ctx.spec_branch || ctx.spec_mdu) && ctx.key != TagNibble::ZERO {
            IssueDecision::Delay(DelayCause::UnsafeAccessWait)
        } else {
            IssueDecision::Proceed(FillMode::SuppressIfUnsafe)
        }
    }
}

fn ablation_selective_delay() {
    println!("--- Ablation 1: selective delay vs delay-all-tagged ---");
    let iters = bench_iterations() / 2 + 1;
    let cfg = SimConfig::table2();
    let mut sel = Vec::new();
    let mut all = Vec::new();
    for p in spec_suite().iter().take(6) {
        let base = run_spec(p, Mitigation::Unsafe, iters).cycles as f64;
        let s = run_spec(p, Mitigation::SpecAsan, iters).cycles as f64 / base;
        let w = build_workload(p, iters, SEED, 0);
        let mut sys = sas_pipeline::System::single_core(
            cfg.core,
            cfg.mem,
            w.program.clone(),
            Box::new(DelayAllTagged),
        );
        w.setup.apply(&mut sys);
        let r = sys.run(1_000_000_000);
        assert_eq!(r.exit, RunExit::Halted);
        let a = r.cycles as f64 / base;
        println!("  {:<18} selective {s:>7.3}   delay-all {a:>7.3}", p.name);
        jsonl::emit(
            "ablations",
            &[
                ("ablation", "selective_delay".into()),
                ("benchmark", p.name.into()),
                ("selective_norm", s.into()),
                ("delay_all_norm", a.into()),
            ],
        );
        sel.push(s);
        all.push(a);
    }
    jsonl::emit(
        "ablations",
        &[
            ("ablation", "selective_delay".into()),
            ("benchmark", "geomean".into()),
            ("selective_norm", geomean(&sel).into()),
            ("delay_all_norm", geomean(&all).into()),
        ],
    );
    println!("  geomean: selective {:.3} vs delay-all {:.3}", geomean(&sel), geomean(&all));
    println!();
}

fn ablation_tag_fetch() {
    println!("--- Ablation 2: parallel vs serial tag-storage fetch ---");
    let iters = bench_iterations() / 2 + 1;
    for p in spec_suite().iter().take(4) {
        let base = run_spec(p, Mitigation::Unsafe, iters).cycles as f64;
        let par = run_spec(p, Mitigation::SpecAsan, iters).cycles as f64 / base;
        let mut cfg = SimConfig::table2();
        cfg.mem.dram.parallel_tag_fetch = false;
        let w = build_workload(p, iters, SEED, 0);
        let mut sys = specasan::build_system(&cfg, w.program.clone(), Mitigation::SpecAsan);
        w.setup.apply(&mut sys);
        let r = sys.run(1_000_000_000);
        assert_eq!(r.exit, RunExit::Halted);
        let ser = r.cycles as f64 / base;
        println!("  {:<18} parallel {par:>7.3}   serial {ser:>7.3}", p.name);
        jsonl::emit(
            "ablations",
            &[
                ("ablation", "tag_fetch".into()),
                ("benchmark", p.name.into()),
                ("parallel_norm", par.into()),
                ("serial_norm", ser.into()),
            ],
        );
    }
    println!();
}

fn ablation_lfb_tagging() {
    println!("--- Ablation 3: tagged LFB vs untagged LFB (RIDL) ---");
    let cfg = SimConfig::table2();
    // With the tagged LFB (SpecASan): blocked. Without it (plain MTE, no
    // speculative checks anywhere): leaked.
    let with = Ridl.run(&cfg, Mitigation::SpecAsan, GadgetFlavor::TagViolating);
    let without = Ridl.run(&cfg, Mitigation::MteOnly, GadgetFlavor::TagViolating);
    println!("  tagged LFB   : RIDL leaked = {}", with.leaked);
    println!("  untagged LFB : RIDL leaked = {}", without.leaked);
    jsonl::emit(
        "ablations",
        &[
            ("ablation", "lfb_tagging".into()),
            ("tagged_lfb_leaked", with.leaked.into()),
            ("untagged_lfb_leaked", without.leaked.into()),
        ],
    );
    println!();
}

fn ablation_tagging_policy() {
    println!("--- Ablation 4: random vs deterministic heap tagging ---");
    println!(
        "  {:<24} {:>18} {:>18}",
        "policy", "adjacent OOB", "arbitrary OOB"
    );
    for policy in [TaggingPolicy::RandomExcludeNeighbors, TaggingPolicy::DeterministicStripes] {
        let mut tags = TagStorage::new();
        let mut heap = TaggedHeap::with_policy(0x10_0000, 1 << 20, 7, policy);
        let mut chunks = Vec::new();
        for _ in 0..256 {
            chunks.push(heap.malloc(&mut tags, 32).unwrap());
        }
        // Linear overflow from each chunk into its right neighbour.
        let mut adj = 0;
        for w in chunks.windows(2) {
            let overflow = w[0].ptr.offset(w[0].size as i64);
            if check_access(&tags, overflow, 8) == TagCheckOutcome::Unsafe {
                adj += 1;
            }
        }
        // Arbitrary (far) out-of-bounds: chunk i's pointer aimed at chunk
        // i+16 (same stripe parity) — caught only if the colours differ
        // (§6's tag-collision limitation).
        let mut far = 0;
        let mut far_total = 0;
        for i in 0..chunks.len() - 16 {
            let target = chunks[i + 16].ptr.untagged();
            let stray = target.with_key(chunks[i].ptr.key());
            far_total += 1;
            if check_access(&tags, stray, 8) == TagCheckOutcome::Unsafe {
                far += 1;
            }
        }
        println!(
            "  {:<24} {:>13}/{} ({:>4.1}%) {:>11}/{} ({:>4.1}%)",
            format!("{policy:?}"),
            adj,
            chunks.len() - 1,
            100.0 * adj as f64 / (chunks.len() - 1) as f64,
            far,
            far_total,
            100.0 * far as f64 / far_total as f64
        );
        let pname = format!("{policy:?}");
        jsonl::emit(
            "ablations",
            &[
                ("ablation", "tagging_policy".into()),
                ("policy", pname.as_str().into()),
                ("adjacent_oob_pct", (100.0 * adj as f64 / (chunks.len() - 1) as f64).into()),
                ("arbitrary_oob_pct", (100.0 * far as f64 / far_total as f64).into()),
            ],
        );
    }
    println!(
        "  Neighbour exclusion makes *linear* overflows always mismatch under both\n  policies; *arbitrary* (same-parity) OOB shows the 16-colour limitation\n  (§6): ~14/15 caught with random tags, 0 with two-colour stripes — whose\n  compensation is immunity to tag-leak (brute-force/timing) attacks."
    );
}

fn ablation_prefetcher() {
    println!("--- Ablation 5: conventional vs secure prefetcher (§6) ---");
    use sas_mem::PrefetchConfig;
    let iters = bench_iterations() / 2 + 1;
    // Security: does a stride stream pull a differently-coloured line in?
    for (label, pf) in [
        ("no prefetcher", PrefetchConfig::default()),
        ("conventional", PrefetchConfig::conventional()),
        ("secure (tag-checked)", PrefetchConfig::secure()),
    ] {
        let mut mem_cfg = SimConfig::table2().mem;
        mem_cfg.prefetch = pf;
        let mut mem = sas_mem::MemSystem::new(1, mem_cfg);
        let secret = sas_isa::VirtAddr::new(0x11C0);
        mem.tags.set_range(secret, 64, TagNibble::new(0x9));
        let mut cycle = 0;
        for line in 0..7u64 {
            let r = mem.load(0, sas_isa::VirtAddr::new(0x1000 + line * 64), 8, cycle, FillMode::Install, false).unwrap();
            cycle += r.latency + 1;
        }
        let leaked = mem.is_cached(0, secret);
        println!("  {label:<22} secret line prefetched = {leaked}");
        jsonl::emit(
            "ablations",
            &[
                ("ablation", "prefetcher_security".into()),
                ("prefetcher", label.into()),
                ("secret_prefetched", leaked.into()),
            ],
        );
    }
    // Performance: streaming workloads with the secure prefetcher on.
    for p in spec_suite().iter().filter(|p| ["525.x264_r", "538.imagick_r"].contains(&p.name)) {
        let base = run_spec(p, Mitigation::SpecAsan, iters).cycles as f64;
        let mut cfg = SimConfig::table2();
        cfg.mem.prefetch = PrefetchConfig::secure();
        let w = build_workload(p, iters, SEED, 0);
        let mut sys = specasan::build_system(&cfg, w.program.clone(), Mitigation::SpecAsan);
        w.setup.apply(&mut sys);
        let r = sys.run(1_000_000_000);
        assert_eq!(r.exit, RunExit::Halted);
        println!(
            "  {:<18} SpecASan {:.3} -> +secure prefetch {:.3} (issued {}, suppressed {})",
            p.name,
            1.0,
            r.cycles as f64 / base,
            r.mem_stats.prefetches_issued,
            r.mem_stats.prefetches_suppressed,
        );
        jsonl::emit(
            "ablations",
            &[
                ("ablation", "prefetcher_perf".into()),
                ("benchmark", p.name.into()),
                ("secure_prefetch_norm", (r.cycles as f64 / base).into()),
                ("prefetches_issued", r.mem_stats.prefetches_issued.into()),
                ("prefetches_suppressed", r.mem_stats.prefetches_suppressed.into()),
            ],
        );
    }
    println!();
}

fn ablation_tag_hints() {
    println!("--- Ablation 6: tag-hint responses under serialized tag fetch (§3.3.4) ---");
    let iters = bench_iterations() / 2 + 1;
    for p in spec_suite().iter().take(3) {
        let base = run_spec(p, Mitigation::Unsafe, iters).cycles as f64;
        let run_with = |hints: bool| {
            let mut cfg = SimConfig::table2();
            cfg.mem.dram.parallel_tag_fetch = false;
            cfg.mem.tag_hint_responses = hints;
            let w = build_workload(p, iters, SEED, 0);
            let mut sys = specasan::build_system(&cfg, w.program.clone(), Mitigation::SpecAsan);
            w.setup.apply(&mut sys);
            let r = sys.run(1_000_000_000);
            assert_eq!(r.exit, RunExit::Halted);
            (r.cycles as f64 / base, r.mem_stats.tag_hint_hits)
        };
        let (serial, _) = run_with(false);
        let (hinted, hits) = run_with(true);
        println!(
            "  {:<18} serial {serial:>6.3}   +hints {hinted:>6.3}   ({hits} tag fetches skipped)",
            p.name
        );
        jsonl::emit(
            "ablations",
            &[
                ("ablation", "tag_hints".into()),
                ("benchmark", p.name.into()),
                ("serial_norm", serial.into()),
                ("hinted_norm", hinted.into()),
                ("tag_hint_hits", hits.into()),
            ],
        );
    }
    println!(
        "  Hints only pay off when the same line reaches DRAM twice within the\n  hint window — rare in streaming workloads, which is consistent with the\n  paper's choice to leave this optimization unimplemented (§3.3.4: 'this\n  is a design choice and is not incorporated')."
    );
    println!();
}

fn main() {
    println!("== Ablations ==");
    // Single-cell mode: `SAS_RUNNER_CELL=<ablation-name>` runs one section.
    let sections: [(&str, fn()); 6] = [
        ("selective_delay", ablation_selective_delay),
        ("tag_fetch", ablation_tag_fetch),
        ("lfb_tagging", ablation_lfb_tagging),
        ("tagging_policy", ablation_tagging_policy),
        ("prefetcher", ablation_prefetcher),
        ("tag_hints", ablation_tag_hints),
    ];
    for (name, run) in sections {
        if sas_bench::benchmark_enabled(name) {
            run();
        }
    }
}
