//! PARSEC benchmark profiles — the 7 multi-threaded benchmarks of Figure 7.
//!
//! Each thread runs the same characteristic body over a private data slice,
//! with a profile-specific fraction of accesses hitting the shared region
//! (coherence traffic), synchronised by a start barrier — matching the
//! paper's 4-core `simsmall` full-system runs.

use crate::generator::{build_workload_inner, Workload};
use crate::profile::Profile;

/// The 7 PARSEC benchmarks the paper could compile (Figure 7's x-axis).
pub fn parsec_suite() -> Vec<Profile> {
    // One positional argument per table column keeps each row on one line.
    #[allow(clippy::too_many_arguments)]
    fn p(
        name: &'static str,
        footprint: u64,
        alu: u32,
        loads: u32,
        stores: u32,
        chase: f64,
        indirect: f64,
        random: f64,
        branches: u32,
        entropy: f64,
        guard: f64,
        shared: f64,
        retag: f64,
    ) -> Profile {
        Profile {
            name,
            footprint,
            alu_per_block: alu,
            loads_per_block: loads,
            stores_per_block: stores,
            chase_frac: chase,
            indirect_frac: indirect,
            random_frac: random,
            branches_per_block: branches,
            branch_entropy: entropy,
            guard_frac: guard,
            call_frac: 0.10,
            retag_frac: retag,
            tagged_frac: 0.6,
            shared_frac: shared,
        }
    }
    vec![
        //  name          footprint  alu ld st chase rand  br entropy shared retag
        p("blackscholes", 1 << 17, 9, 2, 1, 0.00, 0.05, 0.10, 1, 0.15, 0.10, 0.05, 0.04),
        p("canneal", 1 << 21, 3, 4, 1, 0.45, 0.45, 0.45, 2, 0.45, 0.40, 0.20, 0.10),
        p("ferret", 1 << 19, 5, 3, 1, 0.15, 0.25, 0.30, 2, 0.40, 0.30, 0.15, 0.08),
        p("fluidanimate", 1 << 19, 6, 3, 2, 0.05, 0.15, 0.20, 2, 0.30, 0.25, 0.30, 0.06),
        p("freqmine", 1 << 20, 4, 4, 1, 0.25, 0.35, 0.35, 3, 0.45, 0.40, 0.10, 0.08),
        p("streamcluster", 1 << 20, 5, 4, 1, 0.00, 0.10, 0.15, 1, 0.20, 0.15, 0.25, 0.05),
        p("swaptions", 1 << 17, 9, 2, 1, 0.00, 0.05, 0.15, 1, 0.20, 0.10, 0.05, 0.04),
    ]
}

/// Builds one program per thread (all profiles identical, private data
/// slices, shared barrier + shared-region traffic).
pub fn build_parsec_workload(
    profile: &Profile,
    iterations: u32,
    seed: u64,
    threads: usize,
) -> Vec<Workload> {
    (0..threads)
        .map(|t| build_workload_inner(profile, iterations, seed ^ (t as u64) << 32, t, Some(threads)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasan::{build_multicore, Mitigation, SimConfig};

    #[test]
    fn seven_benchmarks_matching_figure7() {
        let s = parsec_suite();
        assert_eq!(s.len(), 7);
        assert_eq!(s[0].name, "blackscholes");
        assert_eq!(s[6].name, "swaptions");
        assert!(s.iter().all(|p| p.shared_frac > 0.0), "PARSEC threads share data");
    }

    #[test]
    fn four_threads_run_to_completion() {
        let s = parsec_suite();
        let profile = &s[0]; // blackscholes
        let ws = build_parsec_workload(profile, 3, 11, 4);
        assert_eq!(ws.len(), 4);
        let mut sys = build_multicore(
            &SimConfig::table2(),
            ws.iter().map(|w| w.program.clone()).collect(),
            Mitigation::SpecAsan,
        );
        for w in &ws {
            w.setup.apply(&mut sys);
        }
        let r = sys.run(10_000_000);
        assert_eq!(r.exit, sas_pipeline::RunExit::Halted, "{:?}", r.exit);
        assert!(r.committed() > 400);
    }

    #[test]
    fn coherence_traffic_appears_with_sharing() {
        let s = parsec_suite();
        let fluid = s.iter().find(|p| p.name == "fluidanimate").unwrap();
        let ws = build_parsec_workload(fluid, 6, 5, 2);
        let mut sys = build_multicore(
            &SimConfig::table2(),
            ws.iter().map(|w| w.program.clone()).collect(),
            Mitigation::Unsafe,
        );
        for w in &ws {
            w.setup.apply(&mut sys);
        }
        let r = sys.run(10_000_000);
        assert_eq!(r.exit, sas_pipeline::RunExit::Halted);
        assert!(
            r.mem_stats.coherence_invalidations > 0,
            "shared stores must invalidate remote copies"
        );
    }
}
