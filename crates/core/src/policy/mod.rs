//! The mitigation policies evaluated in the paper.
//!
//! Each policy implements [`sas_pipeline::MitigationPolicy`] and intervenes
//! at the decision points Figure 1 classifies:
//!
//! | Policy | Delays | Stage (Fig. 1) |
//! |---|---|---|
//! | [`fence::FencePolicy`] | every speculative load | ACCESS |
//! | [`stt::SttPolicy`] | transmitters of tainted data | USE/TRANSMIT |
//! | [`ghostminion::GhostMinionPolicy`] | visibility of fills | TRANSMIT |
//! | [`specasan::SpecAsanPolicy`] | only tag-mismatching speculative accesses | ACCESS (selective) |
//! | [`cfi::SpecCfiPolicy`] | unvalidated indirect control flow | (control) |
//! | [`combo::SpecAsanCfiPolicy`] | both of the above | ACCESS + control |
//!
//! Every policy is a stateless unit struct: its hooks are pure functions of
//! the context the core passes in, and everything a policy caused is counted
//! by the core (`CoreStats`). The whole decision surface of every policy is
//! pinned by the table test below.

pub mod cfi;
pub mod combo;
pub mod fence;
pub mod ghostminion;
pub mod specasan;
pub mod stt;

#[cfg(test)]
mod tests {
    use crate::Mitigation;
    use sas_isa::TagNibble;
    use sas_mem::FillMode;
    use sas_mte::TagCheckOutcome;
    use sas_pipeline::{
        DelayCause, IndirectKind, IssueDecision, LoadIssueCtx, LoadRespCtx, RespDecision,
    };

    /// One policy's full decision surface, one character per input:
    ///
    /// * `issue` — `on_load_issue` at index `spec_branch·8 + spec_mdu·4 +
    ///   addr_tainted·2 + (key ≠ 0)`: `I`/`S`/`G` proceed with `Install`,
    ///   `SuppressIfUnsafe` or `Ghost`; `b`/`t` delay as `BarrierSpecLoad` or
    ///   `TaintedAddress`;
    /// * `resp` — `on_load_response` for `Unchecked`, `Safe`, `Unsafe`:
    ///   `F`orward or `B`lock;
    /// * `stl` — `allow_stl_forward` for the key pairs in [`STL_KEYS`];
    /// * `indirect` — `allow_indirect_speculation` at index `kind·4 + bti·2 +
    ///   rsb` for `Jump`, `Call`, `Return`;
    /// * `flags` — `enforces_mte_at_commit`, `holds_tagged_mdu_results`,
    ///   `blocks_full_speculation`, `taints_speculative_loads`, `-` if false.
    struct Surface {
        mitigation: Mitigation,
        name: &'static str,
        issue: &'static str,
        resp: &'static str,
        stl: &'static str,
        indirect: &'static str,
        flags: &'static str,
    }

    /// (load key, store key): equal untagged, equal tagged, then unequal.
    const STL_KEYS: [(u8, u8); 5] = [(0, 0), (5, 5), (0, 5), (5, 0), (5, 6)];

    const SURFACES: [Surface; 8] = [
        Surface {
            mitigation: Mitigation::Unsafe,
            name: "unsafe-baseline",
            issue: "IIIIIIIIIIIIIIII",
            resp: "FFF",
            stl: "yyyyy",
            indirect: "yyyyyyyyyyyy",
            flags: "----",
        },
        Surface {
            mitigation: Mitigation::MteOnly,
            name: "arm-mte",
            issue: "IIIIIIIIIIIIIIII",
            resp: "FFF",
            stl: "yyyyy",
            indirect: "yyyyyyyyyyyy",
            flags: "m---",
        },
        Surface {
            mitigation: Mitigation::Fence,
            name: "spec-barriers",
            issue: "IIIIbbbbbbbbbbbb",
            resp: "FFF",
            stl: "yyyyy",
            indirect: "yyyyyyyyyyyy",
            flags: "m-f-",
        },
        Surface {
            mitigation: Mitigation::Stt,
            name: "stt",
            issue: "IIttIIttIIttIItt",
            resp: "FFF",
            stl: "yyyyy",
            indirect: "yyyyyyyyyyyy",
            flags: "m--t",
        },
        Surface {
            mitigation: Mitigation::GhostMinion,
            name: "ghostminion",
            issue: "IIIIGGGGGGGGGGGG",
            resp: "FFF",
            stl: "yyyyy",
            indirect: "yyyyyyyyyyyy",
            flags: "m---",
        },
        Surface {
            mitigation: Mitigation::SpecAsan,
            name: "specasan",
            issue: "SSSSSSSSSSSSSSSS",
            resp: "FFB",
            stl: "yynnn",
            indirect: "yyyyyyyyyyyy",
            flags: "mh--",
        },
        Surface {
            mitigation: Mitigation::SpecCfi,
            name: "speccfi",
            issue: "IIIIIIIIIIIIIIII",
            resp: "FFF",
            stl: "yyyyy",
            indirect: "nnyynnyynyny",
            flags: "m---",
        },
        Surface {
            mitigation: Mitigation::SpecAsanCfi,
            name: "specasan+cfi",
            issue: "SSSSSSSSSSSSSSSS",
            resp: "FFB",
            stl: "yynnn",
            indirect: "nnyynnyynyny",
            flags: "mh--",
        },
    ];

    fn yn(b: bool) -> char {
        if b {
            'y'
        } else {
            'n'
        }
    }

    #[test]
    fn every_policy_decision_is_pinned() {
        let covered: Vec<Mitigation> = SURFACES.iter().map(|s| s.mitigation).collect();
        assert_eq!(covered, Mitigation::all(), "one surface per mitigation, in order");
        for s in &SURFACES {
            let p = s.mitigation.build_policy();
            let m = s.mitigation;
            assert_eq!(p.name(), s.name, "{m}");

            let issue: String = (0..16u8)
                .map(|i| {
                    let ctx = LoadIssueCtx {
                        spec_branch: i & 8 != 0,
                        spec_mdu: i & 4 != 0,
                        addr_tainted: i & 2 != 0,
                        key: TagNibble::new(if i & 1 != 0 { 7 } else { 0 }),
                    };
                    match p.on_load_issue(&ctx) {
                        IssueDecision::Proceed(FillMode::Install) => 'I',
                        IssueDecision::Proceed(FillMode::SuppressIfUnsafe) => 'S',
                        IssueDecision::Proceed(FillMode::Ghost) => 'G',
                        IssueDecision::Delay(DelayCause::BarrierSpecLoad) => 'b',
                        IssueDecision::Delay(DelayCause::TaintedAddress) => 't',
                        IssueDecision::Delay(c) => panic!("{m}: unexpected delay {c:?}"),
                    }
                })
                .collect();
            assert_eq!(issue, s.issue, "{m}: on_load_issue");

            let resp: String =
                [TagCheckOutcome::Unchecked, TagCheckOutcome::Safe, TagCheckOutcome::Unsafe]
                    .into_iter()
                    .map(|outcome| match p.on_load_response(&LoadRespCtx { outcome }) {
                        RespDecision::Forward => 'F',
                        RespDecision::Block => 'B',
                    })
                    .collect();
            assert_eq!(resp, s.resp, "{m}: on_load_response");

            let stl: String = STL_KEYS
                .into_iter()
                .map(|(l, st)| yn(p.allow_stl_forward(TagNibble::new(l), TagNibble::new(st))))
                .collect();
            assert_eq!(stl, s.stl, "{m}: allow_stl_forward");

            let indirect: String = [IndirectKind::Jump, IndirectKind::Call, IndirectKind::Return]
                .into_iter()
                .flat_map(|k| {
                    [(false, false), (false, true), (true, false), (true, true)]
                        .map(|(bti, rsb)| yn(p.allow_indirect_speculation(k, bti, rsb)))
                })
                .collect();
            assert_eq!(indirect, s.indirect, "{m}: allow_indirect_speculation");

            let flags: String = [
                (p.enforces_mte_at_commit(), 'm'),
                (p.holds_tagged_mdu_results(), 'h'),
                (p.blocks_full_speculation(), 'f'),
                (p.taints_speculative_loads(), 't'),
            ]
            .into_iter()
            .map(|(on, c)| if on { c } else { '-' })
            .collect();
            assert_eq!(flags, s.flags, "{m}: flags");
        }
    }
}
