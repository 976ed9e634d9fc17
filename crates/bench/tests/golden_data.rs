//! Golden test of the generated data bytes.
//!
//! Every [`Target`] with workloads (15 SPEC profiles on one core, 7 PARSEC
//! profiles on four) is generated the way `Target::system` generates it,
//! and each core's data segments are hashed here with a bytewise FNV-1a
//! over every segment's base, length and bytes. The digests are compared
//! with `crates/workloads/golden_data_digests.txt`. This pins the bytes
//! independently of `Program::fingerprint`, whose value may change with
//! the snapshot format.
//!
//! The data does not depend on the iteration count, only on the profile,
//! the seed and the core, so one smoke-length build per target suffices.
//!
//! Re-recording (only when the generated data is meant to change):
//!
//! ```text
//! SAS_GOLDEN_RECORD=1 cargo test -p sas-bench --test golden_data
//! ```

use sas_bench::{Target, SEED};
use sas_workloads::{build_parsec_workload, build_workload, parsec_suite, spec_suite, Workload};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../workloads/golden_data_digests.txt"
);

/// Bytewise 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_01B3);
        }
    }
}

/// One fixture line per core of `target`.
fn digest_lines(target: Target, workloads: &[Workload]) -> Vec<String> {
    workloads
        .iter()
        .enumerate()
        .map(|(core, w)| {
            let mut h = Fnv1a(0xCBF2_9CE4_8422_2325);
            let segments = w.program.data();
            for seg in segments {
                h.bytes(&seg.base().to_le_bytes());
                h.bytes(&(seg.len() as u64).to_le_bytes());
                h.bytes(&seg.to_vec());
            }
            let len: usize = segments.iter().map(|s| s.len()).sum();
            format!(
                "{}/core{core} segments={} bytes={len} fnv1a={:#018x}",
                target.name(),
                segments.len(),
                h.0
            )
        })
        .collect()
}

#[test]
fn generated_data_bytes_are_pinned() {
    let mut lines = Vec::new();
    for p in spec_suite() {
        lines.extend(digest_lines(
            Target::Spec(p),
            &[build_workload(&p, 2, SEED, 0)],
        ));
    }
    for p in parsec_suite() {
        lines.extend(digest_lines(
            Target::Parsec(p),
            &build_parsec_workload(&p, 2, SEED, 4),
        ));
    }
    let body = lines.join("\n") + "\n";
    if std::env::var("SAS_GOLDEN_RECORD").is_ok_and(|v| v == "1") {
        std::fs::write(FIXTURE, &body).unwrap();
        eprintln!("recorded {} digests into {FIXTURE}", lines.len());
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|e| panic!("missing golden fixture {FIXTURE}: {e}"));
    let diffs: Vec<String> = golden
        .lines()
        .zip(&lines)
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  - {want}\n  + {got}"))
        .collect();
    assert_eq!(golden.lines().count(), lines.len(), "target set changed");
    assert!(
        diffs.is_empty(),
        "generated data moved:\n{}",
        diffs.join("\n")
    );
}
