//! Finding kinds, severities, and human/JSON rendering.

use sas_isa::Program;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A speculative disclosure gadget: cross-validated against the dynamic
    /// oracle, and the target of [`crate::harden`]'s fence suggestions.
    Gadget,
    /// An MTE tag-discipline diagnostic; informational, not a leak per se.
    Lint,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Gadget => write!(f, "gadget"),
            Severity::Lint => write!(f, "lint"),
        }
    }
}

/// What pattern a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FindingKind {
    /// Transiently-obtained (secret) data reaches the address of a load —
    /// the classic Flush+Reload TRANSMIT.
    TransmitLoad,
    /// Secret data reaches the address of a store.
    TransmitStore,
    /// Secret data feeds a long-latency ALU op (divider/multiplier) — the
    /// SCC contention transmitter, which leaks without touching the cache.
    ContentionTransmit,
    /// A speculatively-loaded or secret value is the target of an indirect
    /// control transfer (`BR`/`BLR`/`RET`).
    TaintedIndirectTarget,
    /// Attacker-controlled data reaches an access address inside an uncut
    /// speculative window (bounds-check-bypass shape).
    SpeculativeOobAccess,
    /// A constant-resolved access inside a speculative window faults: it
    /// targets a protected range or mismatches the granule's MTE lock —
    /// the very event SpecASan's tag check detects dynamically.
    UnsafeSpeculativeAccess,
    /// A tagged base pointer whose provenance is not an `IRG`/`ADDG`/`SUBG`
    /// def-use chain (lint).
    UnderivedTaggedBase,
    /// `STG`/`ST2G` whose resolved address is not 16-byte aligned (lint).
    MisalignedTagStore,
    /// A constant pointer key that differs from the addressed granule's
    /// established lock (lint).
    TagKeyMismatch,
}

impl FindingKind {
    /// The severity class of this kind.
    pub fn severity(self) -> Severity {
        match self {
            FindingKind::TransmitLoad
            | FindingKind::TransmitStore
            | FindingKind::ContentionTransmit
            | FindingKind::TaintedIndirectTarget
            | FindingKind::SpeculativeOobAccess
            | FindingKind::UnsafeSpeculativeAccess => Severity::Gadget,
            FindingKind::UnderivedTaggedBase
            | FindingKind::MisalignedTagStore
            | FindingKind::TagKeyMismatch => Severity::Lint,
        }
    }

    /// Stable kebab-case code used by the JSON-lines output.
    pub fn code(self) -> &'static str {
        match self {
            FindingKind::TransmitLoad => "transmit-load",
            FindingKind::TransmitStore => "transmit-store",
            FindingKind::ContentionTransmit => "contention-transmit",
            FindingKind::TaintedIndirectTarget => "tainted-indirect-target",
            FindingKind::SpeculativeOobAccess => "speculative-oob-access",
            FindingKind::UnsafeSpeculativeAccess => "unsafe-speculative-access",
            FindingKind::UnderivedTaggedBase => "underived-tagged-base",
            FindingKind::MisalignedTagStore => "misaligned-tag-store",
            FindingKind::TagKeyMismatch => "tag-key-mismatch",
        }
    }
}

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What pattern was matched.
    pub kind: FindingKind,
    /// Instruction index the finding anchors to.
    pub pc: usize,
    /// Human-oriented explanation (deterministic).
    pub detail: String,
}

impl Finding {
    /// The listing line of `program` this finding points at, exactly as
    /// [`Program::listing`] prints it (label annotations included).
    pub fn listing_line(&self, program: &Program) -> String {
        let prefix = format!("{:4}: ", self.pc);
        program
            .listing()
            .lines()
            .find(|l| l.trim_start().starts_with(&prefix) || l.trim_start().starts_with(prefix.trim_start()))
            .map(str::to_owned)
            .unwrap_or_else(|| format!("  {:4}: <out of range>", self.pc))
    }

    /// Renders a two-line human diagnostic quoting the listing line.
    pub fn render_human(&self, program: &Program) -> String {
        format!(
            "{}[{}] @{}: {}\n  {}",
            self.kind.severity(),
            self.kind.code(),
            self.pc,
            self.detail,
            self.listing_line(program).trim_end(),
        )
    }

    /// Renders the finding as one JSON line (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"severity\":\"{}\",\"kind\":\"{}\",\"pc\":{},\"detail\":\"{}\"}}",
            self.kind.severity(),
            self.kind.code(),
            self.pc,
            json_escape(&self.detail),
        )
    }
}

/// The workspace JSON escaping rule (`sas_telemetry::json::escape`, which
/// this crate cannot depend on without a new dependency edge); a property
/// test pins the two together.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_isa::ProgramBuilder;

    #[test]
    fn json_lines_are_well_formed_and_escaped() {
        let f = Finding {
            kind: FindingKind::TransmitLoad,
            pc: 7,
            detail: "address \"X6\" is\nsecret".into(),
        };
        let line = f.to_json_line();
        assert_eq!(
            line,
            "{\"severity\":\"gadget\",\"kind\":\"transmit-load\",\"pc\":7,\
             \"detail\":\"address \\\"X6\\\" is\\nsecret\"}"
        );
    }

    #[test]
    fn escaper_matches_the_workspace_json_escape() {
        let text = sas_ptest::gens::escape_text(24);
        sas_ptest::check("analyze_escape_matches_json_escape", 256, |rng| {
            let s = text.sample(rng);
            assert_eq!(json_escape(&s), sas_telemetry::json::escape(&s), "{s:?}");
        });
    }

    #[test]
    fn human_rendering_quotes_the_listing_line() {
        let mut asm = ProgramBuilder::new();
        asm.nop();
        asm.halt();
        let p = asm.build().unwrap();
        let f = Finding { kind: FindingKind::TagKeyMismatch, pc: 1, detail: "x".into() };
        let text = f.render_human(&p);
        assert!(text.contains("HALT"), "{text}");
        assert!(text.contains("lint[tag-key-mismatch] @1"), "{text}");
    }

    #[test]
    fn every_kind_has_a_distinct_code() {
        let kinds = [
            FindingKind::TransmitLoad,
            FindingKind::TransmitStore,
            FindingKind::ContentionTransmit,
            FindingKind::TaintedIndirectTarget,
            FindingKind::SpeculativeOobAccess,
            FindingKind::UnsafeSpeculativeAccess,
            FindingKind::UnderivedTaggedBase,
            FindingKind::MisalignedTagStore,
            FindingKind::TagKeyMismatch,
        ];
        let codes: std::collections::HashSet<_> = kinds.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), kinds.len());
    }
}
