//! The supervisor side of the heartbeat protocol.
//!
//! Children arm `System::set_heartbeat`, which atomically rewrites a
//! one-line `{"schema":"sas-hb-v2","cycle":N,"committed":M,"cpi":"base=…"}`
//! file every N cycles (write-temp-then-rename, so a poll never reads a
//! torn line). Supervisors — the `sas-runner` watchdog loop, the
//! `sas-serve` hung-worker monitor, and the `GET /watch/<job>` SSE bridge
//! — poll that file to distinguish *slow* from *stuck* and to stream
//! progress. The reader requires `"schema":"sas-hb-v2"`; any other line
//! (an older writer's, a torn one) is not a sample. `cpi` is optional.
//!
//! Heartbeat files are process-scoped scratch state, not durable artifacts:
//! they are keyed by the supervisor pid so concurrent campaigns never
//! collide, removed when the supervised work ends, and swept by
//! [`crate::sweep`] at startup when a SIGKILLed supervisor leaves orphans
//! behind in a state dir.

use sas_pipeline::json::{self, Json};
use std::path::{Path, PathBuf};

/// Prefix of heartbeat file names inside a shared state dir (what
/// [`crate::sweep`] matches on).
pub const FILE_PREFIX: &str = "hb-";

/// Schema tag the current pipeline writer stamps into heartbeat files.
pub const SCHEMA: &str = "sas-hb-v2";

/// A parsed heartbeat sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// The child's current simulation cycle.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// Flat-encoded CPI stack so far (`base=12;fetch_stall=3;…`), when
    /// the writer included one.
    pub cpi: Option<String>,
}

fn sanitize(id: &str) -> String {
    id.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

/// The heartbeat file for supervised work `id` inside a shared state dir,
/// keyed by this process's pid.
pub fn path_in(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{FILE_PREFIX}{}-{}.json", std::process::id(), sanitize(id)))
}

/// The heartbeat file for supervised work `id` when no state dir exists:
/// the system temp dir, pid-keyed.
pub fn default_path(id: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sas-runner-hb-{}-{}.json", std::process::id(), sanitize(id)))
}

/// Whether a state-dir file name is a (possibly orphaned) heartbeat file.
pub fn is_heartbeat_file(name: &str) -> bool {
    name.starts_with(FILE_PREFIX) && name.ends_with(".json")
}

/// Removes a heartbeat file together with its rename-staging sibling.
pub fn remove(path: &Path) {
    let _ = std::fs::remove_file(path.with_extension("hb.tmp"));
    let _ = std::fs::remove_file(path);
}

/// Reads the latest heartbeat sample. `None` until the child arms its
/// heartbeat (or for work that never runs a pipeline).
pub fn read(path: &Path) -> Option<Heartbeat> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = json::parse(&text).ok()?;
    if doc.get("schema")?.as_str()? != SCHEMA {
        return None;
    }
    Some(Heartbeat {
        cycle: doc.get("cycle")?.as_u64()?,
        committed: doc.get("committed")?.as_u64()?,
        cpi: doc.get("cpi").and_then(Json::as_str).map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_pid_keyed_and_sanitized() {
        let dir = PathBuf::from("state");
        let p = path_in(&dir, "spec/505.mcf_r/stt");
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert!(is_heartbeat_file(&name), "{name}");
        assert!(name.contains(&std::process::id().to_string()), "{name}");
        assert!(!name.contains('/'), "{name}");
        assert_ne!(path_in(&dir, "a"), path_in(&dir, "b"));
    }

    #[test]
    fn read_round_trips_the_child_line() {
        let dir = std::env::temp_dir().join(format!("sas-hb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = path_in(&dir, "unit");
        // v1 files (no schema tag) are not read.
        std::fs::write(&p, "{\"cycle\":1234,\"committed\":567}\n").unwrap();
        assert_eq!(read(&p), None);
        // v2 files carry the schema tag and the flat CPI string.
        std::fs::write(
            &p,
            format!(
                "{{\"schema\":\"{SCHEMA}\",\"cycle\":9,\"committed\":5,\"cpi\":\"base=4;memory_bound=5\"}}\n"
            ),
        )
        .unwrap();
        assert_eq!(
            read(&p),
            Some(Heartbeat {
                cycle: 9,
                committed: 5,
                cpi: Some("base=4;memory_bound=5".to_string())
            })
        );
        // A torn/partial line is not a sample.
        std::fs::write(&p, "{\"cycle\":12").unwrap();
        assert_eq!(read(&p), None);
        remove(&p);
        assert!(!p.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
