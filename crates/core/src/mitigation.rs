//! Value-level mitigation selection and system assembly.

use crate::config::SimConfig;
use crate::policy::cfi::SpecCfiPolicy;
use crate::policy::combo::SpecAsanCfiPolicy;
use crate::policy::fence::FencePolicy;
use crate::policy::ghostminion::GhostMinionPolicy;
use crate::policy::specasan::SpecAsanPolicy;
use crate::policy::stt::SttPolicy;
use sas_isa::Program;
use sas_pipeline::{MitigationPolicy, MteOnlyPolicy, NoPolicy, System};
use std::fmt;

/// The defenses evaluated in the paper, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mitigation {
    /// No protection at all (the normalisation baseline of Figures 6/7/9).
    Unsafe,
    /// Architectural ARM MTE only (committed-path checks).
    MteOnly,
    /// Speculative barriers / fences.
    Fence,
    /// Speculative Taint Tracking (STT-Default).
    Stt,
    /// GhostMinion shadow fills.
    GhostMinion,
    /// SpecASan (the paper's mechanism).
    SpecAsan,
    /// SpecCFI (control-flow only).
    SpecCfi,
    /// SpecASan + SpecCFI combined.
    SpecAsanCfi,
}

impl Mitigation {
    /// Every mitigation, in the order the paper's figures present them.
    pub fn all() -> [Mitigation; 8] {
        [
            Mitigation::Unsafe,
            Mitigation::MteOnly,
            Mitigation::Fence,
            Mitigation::Stt,
            Mitigation::GhostMinion,
            Mitigation::SpecAsan,
            Mitigation::SpecCfi,
            Mitigation::SpecAsanCfi,
        ]
    }

    /// The four bars of Figures 6 and 7.
    pub fn figure6_set() -> [Mitigation; 4] {
        [Mitigation::Fence, Mitigation::Stt, Mitigation::GhostMinion, Mitigation::SpecAsan]
    }

    /// The three bars of Figure 9.
    pub fn figure9_set() -> [Mitigation; 3] {
        [Mitigation::SpecCfi, Mitigation::SpecAsan, Mitigation::SpecAsanCfi]
    }

    /// Short stable token naming the mitigation in CLIs, environment
    /// variables and manifest cell ids. [`Mitigation::parse`] accepts every
    /// token (plus a few aliases).
    pub fn token(self) -> &'static str {
        match self {
            Mitigation::Unsafe => "unsafe",
            Mitigation::MteOnly => "mte",
            Mitigation::Fence => "fence",
            Mitigation::Stt => "stt",
            Mitigation::GhostMinion => "ghostminion",
            Mitigation::SpecAsan => "specasan",
            Mitigation::SpecCfi => "speccfi",
            Mitigation::SpecAsanCfi => "specasan+cfi",
        }
    }

    /// Parses a mitigation token or alias, case-insensitively.
    pub fn parse(s: &str) -> Option<Mitigation> {
        Some(match s.to_ascii_lowercase().as_str() {
            "unsafe" | "baseline" | "none" => Mitigation::Unsafe,
            "mte" | "mte-only" => Mitigation::MteOnly,
            "fence" | "barriers" => Mitigation::Fence,
            "stt" => Mitigation::Stt,
            "ghostminion" | "ghost" | "gm" => Mitigation::GhostMinion,
            "specasan" | "asan" => Mitigation::SpecAsan,
            "speccfi" | "cfi" => Mitigation::SpecCfi,
            "specasan+cfi" | "combo" | "specasan-cfi" => Mitigation::SpecAsanCfi,
            _ => return None,
        })
    }

    /// Instantiates a fresh policy object.
    pub fn build_policy(self) -> Box<dyn MitigationPolicy> {
        match self {
            Mitigation::Unsafe => Box::new(NoPolicy),
            Mitigation::MteOnly => Box::new(MteOnlyPolicy),
            Mitigation::Fence => Box::new(FencePolicy),
            Mitigation::Stt => Box::new(SttPolicy),
            Mitigation::GhostMinion => Box::new(GhostMinionPolicy),
            Mitigation::SpecAsan => Box::new(SpecAsanPolicy),
            Mitigation::SpecCfi => Box::new(SpecCfiPolicy),
            Mitigation::SpecAsanCfi => Box::new(SpecAsanCfiPolicy),
        }
    }
}

impl fmt::Display for Mitigation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mitigation::Unsafe => "Unsafe Baseline",
            Mitigation::MteOnly => "ARM MTE",
            Mitigation::Fence => "Speculative Barriers",
            Mitigation::Stt => "STT",
            Mitigation::GhostMinion => "GhostMinion",
            Mitigation::SpecAsan => "SpecASan",
            Mitigation::SpecCfi => "SpecCFI",
            Mitigation::SpecAsanCfi => "SpecASan+CFI",
        };
        f.write_str(s)
    }
}

/// Builds a single-core system running `program` under `mitigation`.
pub fn build_system(cfg: &SimConfig, program: Program, mitigation: Mitigation) -> System {
    System::single_core(cfg.core, cfg.mem, program, mitigation.build_policy())
}

/// Builds a multi-core system, every core under the same mitigation.
pub fn build_multicore(cfg: &SimConfig, programs: Vec<Program>, mitigation: Mitigation) -> System {
    System::multi_core(
        cfg.core,
        cfg.mem,
        programs.into_iter().map(|p| (p, mitigation.build_policy())).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_through_parse() {
        for m in Mitigation::all() {
            assert_eq!(Mitigation::parse(m.token()), Some(m), "{m}");
        }
        assert_eq!(Mitigation::parse("GM"), Some(Mitigation::GhostMinion));
        assert_eq!(Mitigation::parse("bogus"), None);
    }

    #[test]
    fn display_names_match_figures() {
        assert_eq!(Mitigation::SpecAsan.to_string(), "SpecASan");
        assert_eq!(Mitigation::Fence.to_string(), "Speculative Barriers");
        assert_eq!(Mitigation::SpecAsanCfi.to_string(), "SpecASan+CFI");
    }

    #[test]
    fn figure_sets_have_expected_order() {
        let f6 = Mitigation::figure6_set();
        assert_eq!(f6[0], Mitigation::Fence);
        assert_eq!(f6[3], Mitigation::SpecAsan);
        let f9 = Mitigation::figure9_set();
        assert_eq!(f9[2], Mitigation::SpecAsanCfi);
    }
}
