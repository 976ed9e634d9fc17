//! The `sas-hb-v2` progress record, one line:
//! `{"schema":"sas-hb-v2","cycle":N,"committed":M,"cpi":"base=…"}`.
//!
//! [`crate::checkpoint::run_supervised_with`] builds one from each chunk's
//! [`RunResult`], hands it to the control callback and, when the plan names
//! a heartbeat file, rewrites that file with it; the `sas-runner` watchdog
//! reads the file back, and `sas-serve` keeps the record in memory.

use sas_pipeline::json::{self, Json};
use sas_pipeline::{DelayCause, RunResult};
use std::path::{Path, PathBuf};

/// Schema tag stamped into every heartbeat line.
pub const SCHEMA: &str = "sas-hb-v2";

/// One progress sample of a supervised run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// The run's current simulation cycle.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// Flat-encoded CPI stack so far (`base=12;fetch_stall=3;…`).
    pub cpi: String,
}

impl Heartbeat {
    /// The sample a (partial) run result describes.
    pub fn of(run: &RunResult) -> Heartbeat {
        Heartbeat {
            cycle: run.cycles,
            committed: run.committed(),
            cpi: run.cpi().encode_flat(&DelayCause::ALL.map(|c| c.name())),
        }
    }

    /// Parses a `sas-hb-v2` line; `None` for any other schema (an older
    /// writer's) or a torn line. A missing `cpi` reads as empty.
    pub fn parse(text: &str) -> Option<Heartbeat> {
        let doc = json::parse(text).ok()?;
        if doc.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        Some(Heartbeat {
            cycle: doc.get("cycle")?.as_u64()?,
            committed: doc.get("committed")?.as_u64()?,
            cpi: doc.get("cpi").and_then(Json::as_str).unwrap_or_default().to_string(),
        })
    }

    /// Replaces the file at `path` with this sample's `sas-hb-v2` line,
    /// staged in [`temp_path`] and renamed over the target so that a reader
    /// polling from another process never sees an empty or torn line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let tmp = temp_path(path);
        let (cycle, committed, cpi) = (self.cycle, self.committed, &self.cpi);
        let line = format!(
            "{{\"schema\":\"{SCHEMA}\",\"cycle\":{cycle},\"committed\":{committed},\"cpi\":\"{cpi}\"}}\n"
        );
        std::fs::write(&tmp, line)?;
        std::fs::rename(&tmp, path)
    }
}

/// The rename-staging sibling of heartbeat file `path`.
pub fn temp_path(path: &Path) -> PathBuf {
    path.with_extension("hb.tmp")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_round_trips_the_child_line() {
        let dir = std::env::temp_dir().join(format!("sas-hb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("hb-unit.json");
        let read = || Heartbeat::parse(&std::fs::read_to_string(&p).unwrap());
        // v1 files (no schema tag) are not read.
        std::fs::write(&p, "{\"cycle\":1234,\"committed\":567}\n").unwrap();
        assert_eq!(read(), None);
        // v2 lines carry the schema tag and the flat CPI string, and what
        // the writer stages and renames is what the parser returns.
        let hb = Heartbeat { cycle: 9, committed: 5, cpi: "base=4;memory_bound=5".to_string() };
        hb.write(&p).unwrap();
        assert!(!temp_path(&p).exists(), "staging file must not linger");
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            format!(
                "{{\"schema\":\"{SCHEMA}\",\"cycle\":9,\"committed\":5,\"cpi\":\"base=4;memory_bound=5\"}}\n"
            )
        );
        assert_eq!(read(), Some(hb));
        // A missing cpi reads as empty.
        std::fs::write(&p, format!("{{\"schema\":\"{SCHEMA}\",\"cycle\":3,\"committed\":2}}"))
            .unwrap();
        assert_eq!(read(), Some(Heartbeat { cycle: 3, committed: 2, cpi: String::new() }));
        // A torn/partial line is not a sample.
        std::fs::write(&p, "{\"cycle\":12").unwrap();
        assert_eq!(read(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
