//! `sas-fuzz` command-line contract.

use std::process::{Command, Output};

fn sas_fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sas-fuzz"))
        .args(args)
        .output()
        .expect("spawn sas-fuzz")
}

/// A count that does not fit a `u32`, or is no number, is a usage error
/// naming the flag, raised before any case runs.
#[test]
fn campaign_counts_must_be_exact_u32s() {
    for (flag, value) in [
        ("--cases", "4294967297"),
        ("--cases", "x"),
        ("--cases", "-1"),
        ("--shrink-budget", "0x100000000"),
        ("--shrink-budget", "1.5"),
    ] {
        let out = sas_fuzz(&["campaign", flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} must be an integer")),
            "{flag} {value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value}: a case ran");
    }
}
