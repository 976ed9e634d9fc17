//! SPEC CPU2017 benchmark profiles — the 15 benchmarks of Figures 6/8/9.
//!
//! Characteristics follow each benchmark's published behaviour: `mcf` is a
//! pointer-chasing cache thrasher; `perlbench`/`gcc`/`xalancbmk`/`omnetpp`
//! are branchy integer codes with irregular access; `deepsjeng`/`leela` are
//! branch-heavy game searches; `namd`/`nab`/`povray`/`parest`/`imagick` are
//! compute-bound kernels; `x264`/`blender`/`xz` sit in between with heavy
//! streaming.

use crate::profile::Profile;

/// The 15 SPECrate 2017 benchmarks the paper could compile (Figure 6's
/// x-axis, in order).
pub fn spec_suite() -> Vec<Profile> {
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
        calls: f64,
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
            call_frac: calls,
            retag_frac: retag,
            tagged_frac: 0.6,
            shared_frac: 0.0,
        }
    }
    vec![
        //    name                 footprint  alu ld st chase rand  br entropy call retag
        p("500.perlbench_r", 1 << 19, 4, 3, 1, 0.10, 0.35, 0.35, 3, 0.55, 0.50, 0.30, 0.10),
        p("502.gcc_r", 1 << 20, 4, 3, 1, 0.15, 0.35, 0.40, 3, 0.50, 0.45, 0.25, 0.12),
        p("505.mcf_r", 1 << 22, 2, 4, 1, 0.60, 0.50, 0.30, 2, 0.45, 0.40, 0.05, 0.06),
        p("508.namd_r", 1 << 17, 10, 2, 1, 0.00, 0.05, 0.10, 1, 0.10, 0.05, 0.05, 0.02),
        p("510.parest_r", 1 << 19, 8, 3, 1, 0.05, 0.10, 0.15, 1, 0.20, 0.10, 0.10, 0.04),
        p("511.povray_r", 1 << 17, 8, 2, 1, 0.05, 0.10, 0.20, 2, 0.25, 0.15, 0.25, 0.04),
        p("520.omnetpp_r", 1 << 21, 3, 4, 2, 0.45, 0.45, 0.35, 3, 0.50, 0.45, 0.25, 0.12),
        p("523.xalancbmk_r", 1 << 21, 3, 4, 1, 0.40, 0.45, 0.40, 3, 0.45, 0.50, 0.30, 0.10),
        p("525.x264_r", 1 << 19, 7, 3, 2, 0.00, 0.15, 0.25, 2, 0.30, 0.20, 0.10, 0.04),
        p("526.blender_r", 1 << 20, 6, 3, 2, 0.10, 0.15, 0.25, 2, 0.35, 0.25, 0.15, 0.06),
        p("531.deepsjeng_r", 1 << 18, 4, 3, 1, 0.15, 0.30, 0.35, 3, 0.60, 0.45, 0.20, 0.06),
        p("538.imagick_r", 1 << 19, 9, 3, 2, 0.00, 0.05, 0.10, 1, 0.15, 0.05, 0.05, 0.03),
        p("541.leela_r", 1 << 18, 4, 3, 1, 0.20, 0.30, 0.30, 3, 0.55, 0.40, 0.25, 0.08),
        p("544.nab_r", 1 << 17, 9, 2, 1, 0.00, 0.05, 0.15, 1, 0.15, 0.05, 0.10, 0.03),
        p("557.xz_r", 1 << 20, 5, 3, 2, 0.05, 0.25, 0.45, 2, 0.45, 0.30, 0.05, 0.05),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_benchmarks_matching_figure6() {
        let s = spec_suite();
        assert_eq!(s.len(), 15);
        assert_eq!(s[0].name, "500.perlbench_r");
        assert_eq!(s[14].name, "557.xz_r");
        // Names unique.
        let mut names: Vec<_> = s.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn mcf_is_the_pointer_chaser() {
        let s = spec_suite();
        let mcf = s.iter().find(|p| p.name == "505.mcf_r").unwrap();
        assert!(s.iter().all(|p| p.chase_frac <= mcf.chase_frac));
        assert!(s.iter().all(|p| p.footprint <= mcf.footprint));
    }

    #[test]
    fn compute_kernels_have_low_entropy() {
        let s = spec_suite();
        for name in ["508.namd_r", "544.nab_r", "538.imagick_r"] {
            let p = s.iter().find(|p| p.name == name).unwrap();
            assert!(p.branch_entropy <= 0.2, "{name} should be predictable");
            assert!(p.alu_per_block >= 8, "{name} should be compute-bound");
        }
    }
}
