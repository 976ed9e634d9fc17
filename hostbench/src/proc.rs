//! Child processes and host memory.

use std::io;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};

/// A child process that is killed and reaped when dropped, so no exit
/// path of the benchmark leaves one running.
pub struct Guard(Child);

impl Guard {
    /// Starts `cmd` with stdin closed.
    pub fn spawn(cmd: &mut Command) -> io::Result<Guard> {
        Ok(Guard(cmd.stdin(Stdio::null()).spawn()?))
    }

    /// The child's process id.
    pub fn id(&self) -> u32 {
        self.0.id()
    }

    /// The child.
    pub fn child(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // Both fail harmlessly on a child that was already reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `cmd` to completion with its output sent to `log` (stdout and
/// stderr both), so the child never writes to the benchmark's stdout.
pub fn run_logged(cmd: &mut Command, log: &Path) -> io::Result<ExitStatus> {
    let out = std::fs::File::create(log)?;
    let err = out.try_clone()?;
    let mut guard = Guard::spawn(cmd.stdout(out).stderr(err))?;
    guard.child().wait()
}

/// Removes every `SAS_*` variable from a child's environment, so settings
/// of the calling shell cannot change what the benchmark runs.
pub fn clean_env(cmd: &mut Command) -> &mut Command {
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("SAS_") {
            cmd.env_remove(k);
        }
    }
    cmd
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process for
/// `None`, in MiB; 0 when it cannot be read.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let Ok(status) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest peak resident set among this process's finished and reaped
/// descendants, in MiB (`getrusage(RUSAGE_CHILDREN).ru_maxrss`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the layout of the C
    // `struct rusage` on this target (checked by the cfg above), and
    // getrusage writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Largest peak resident set among reaped descendants (unavailable on this
/// target).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mb(None) > 0.0);
    }

    #[test]
    fn guard_kills_and_reaps() {
        let t = std::time::Instant::now();
        let mut g = Guard::spawn(Command::new("sleep").arg("30")).expect("spawn sleep");
        let pid = g.id();
        assert!(g.child().try_wait().expect("try_wait").is_none());
        drop(g);
        assert!(
            t.elapsed().as_secs() < 10,
            "the guard did not kill the child"
        );
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "the child was not reaped"
        );
        assert!(children_peak_rss_mb() > 0.0);
    }
}
