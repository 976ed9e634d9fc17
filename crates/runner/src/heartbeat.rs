//! Heartbeat files on the supervisor side: naming, reading and removal.
//!
//! A `sas-runner cell` child's supervised-run loop rewrites its
//! `--heartbeat` file with one `sas-hb-v2` line (see
//! [`sas_bench::heartbeat`]) every 100 000 cycles and at every checkpoint
//! boundary. The `sas-runner` watchdog loop reads it back to print a
//! progress line for long cells.
//!
//! Heartbeat files are process-scoped scratch state, not durable artifacts:
//! they are keyed by the supervisor pid so concurrent campaigns never
//! collide, removed when the supervised work ends, and swept by
//! [`crate::sweep`] at startup when a SIGKILLed supervisor leaves orphans
//! behind in a state dir.

use sas_bench::heartbeat::{temp_path, Heartbeat};
use std::path::{Path, PathBuf};

/// Prefix of heartbeat file names inside a shared state dir (what
/// [`crate::sweep`] matches on).
pub const FILE_PREFIX: &str = "hb-";

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
    let _ = std::fs::remove_file(temp_path(path));
    let _ = std::fs::remove_file(path);
}

/// Reads the latest heartbeat sample. `None` until the child's run loop
/// first stops (or for work that never runs a pipeline).
pub fn read(path: &Path) -> Option<Heartbeat> {
    Heartbeat::parse(&std::fs::read_to_string(path).ok()?)
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
    fn read_and_remove_handle_the_written_file() {
        let dir = std::env::temp_dir().join(format!("sas-hb-runner-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = path_in(&dir, "unit");
        assert_eq!(read(&p), None, "no file, no sample");
        let hb = Heartbeat { cycle: 9, committed: 5, cpi: "base=4".to_string() };
        hb.write(&p).unwrap();
        assert_eq!(read(&p), Some(hb));
        std::fs::write(temp_path(&p), "torn").unwrap();
        remove(&p);
        assert!(!p.exists() && !temp_path(&p).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
