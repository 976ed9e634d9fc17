//! Watched children and bounded capture of their output pipes.
//!
//! Every child the supervisor starts — a cell or a shrinker probe — runs
//! through [`run_watched`]: spawn, drain both pipes, poll `try_wait` under
//! a wall-clock watchdog, and kill on expiry. The pipes are drained on
//! reader threads so a chatty child never blocks on a full pipe while the
//! parent polls. The reader threads also report each pipe's end, which
//! wakes the poll, so a child is reaped as soon as it exits rather than at
//! the next 15 ms tick. Draining must not trade that deadlock for an OOM:
//! a looping child printing gigabytes would otherwise grow the capture
//! buffer without bound inside the supervisor process. [`BoundedCapture`] keeps the **head**
//! and **tail** of the stream within a fixed byte budget and replaces the
//! middle with a `... N bytes dropped ...` marker — the head keeps startup
//! context, the tail keeps the part that matters (the final
//! `SAS_RUNNER_RESULT` line on stdout, the last panic lines on stderr).

use std::collections::VecDeque;
use std::io::{self, Read};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default per-stream capture budget (bytes). Far above anything a healthy
/// cell prints; small enough that even `jobs` concurrent runaway children
/// cost the supervisor only a few MiB.
pub const DEFAULT_CAP: usize = 256 * 1024;

/// A fixed-budget head+tail capture of one byte stream.
#[derive(Debug)]
pub struct BoundedCapture {
    head: Vec<u8>,
    tail: VecDeque<u8>,
    head_budget: usize,
    tail_budget: usize,
    dropped: u64,
}

impl BoundedCapture {
    /// An empty capture splitting `cap` bytes between head and tail.
    /// A `cap` of 0 keeps nothing but the drop count.
    pub fn new(cap: usize) -> BoundedCapture {
        let head_budget = cap / 2;
        BoundedCapture {
            head: Vec::new(),
            tail: VecDeque::new(),
            head_budget,
            tail_budget: cap - head_budget,
            dropped: 0,
        }
    }

    /// Feeds a chunk of the stream into the capture.
    pub fn push(&mut self, mut chunk: &[u8]) {
        if self.head.len() < self.head_budget {
            let take = chunk.len().min(self.head_budget - self.head.len());
            self.head.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
        }
        if chunk.is_empty() {
            return;
        }
        if self.tail_budget == 0 {
            self.dropped += chunk.len() as u64;
            return;
        }
        // Oversized chunks can only ever contribute their own tail.
        if chunk.len() > self.tail_budget {
            let skip = chunk.len() - self.tail_budget;
            self.dropped += skip as u64;
            chunk = &chunk[skip..];
        }
        let evict = (self.tail.len() + chunk.len()).saturating_sub(self.tail_budget);
        self.dropped += evict as u64;
        self.tail.drain(..evict);
        self.tail.extend(chunk);
    }

    /// Total bytes evicted from the middle of the stream.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the capture: head, a drop marker when anything was evicted,
    /// then the retained tail (lossy UTF-8).
    pub fn into_string(self) -> String {
        let mut out = String::from_utf8_lossy(&self.head).into_owned();
        if self.dropped > 0 {
            if !out.ends_with('\n') && !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!("... {} bytes dropped ...\n", self.dropped));
        }
        let tail: Vec<u8> = self.tail.into_iter().collect();
        out.push_str(&String::from_utf8_lossy(&tail));
        out
    }
}

/// Reads `reader` to EOF through a [`BoundedCapture`] with budget `cap`.
/// Read errors end the capture (the stream is whatever arrived first) — for
/// a supervised child pipe that only happens when the child is killed.
pub fn capture_bounded(mut reader: impl Read, cap: usize) -> BoundedCapture {
    let mut capture = BoundedCapture::new(cap);
    let mut buf = [0u8; 8192];
    loop {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => return capture,
            Ok(n) => capture.push(&buf[..n]),
        }
    }
}

/// How often [`run_watched`] polls a child whose pipes are open.
const POLL_PERIOD: Duration = Duration::from_millis(15);

/// How often [`run_watched`] polls a child that has closed both pipes: it
/// has usually exited already, or is about to. Polling every child this
/// often instead costs the supervisor about 1% of a core per child.
const REAP_PERIOD: Duration = Duration::from_millis(1);

/// How a watched child ended.
#[derive(Debug)]
pub enum Watched {
    /// The child exited, or a signal killed it, within the budget.
    Exited {
        /// Its exit status.
        status: ExitStatus,
        /// Its bounded stdout capture.
        stdout: String,
        /// Its bounded stderr capture.
        stderr: String,
    },
    /// The watchdog killed the child when its budget ran out.
    TimedOut,
    /// Polling the child failed; it was killed.
    WaitFailed(io::Error),
}

/// Spawns `cmd` with stdin closed and both output pipes drained through
/// [`capture_bounded`], polls it (calling `on_poll` with the elapsed time
/// between polls), and kills it once `timeout` has passed. The poll comes
/// every 15 ms, and at once when a pipe closes; once both pipes have
/// closed, every millisecond. The error is a failed spawn.
pub fn run_watched(
    cmd: &mut Command,
    timeout: Duration,
    mut on_poll: impl FnMut(Duration),
) -> io::Result<Watched> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let (closed, pipe_closed) = mpsc::channel();
    let stdout = drain(child.stdout.take().expect("piped stdout"), closed.clone());
    let stderr = drain(child.stderr.take().expect("piped stderr"), closed);
    let started = Instant::now();
    let mut open = 2;
    // `Err(None)`: the watchdog fired; `Err(Some(e))`: `try_wait` failed.
    let end = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() >= timeout => break Err(None),
            Ok(None) => {
                on_poll(started.elapsed());
                if open == 0 {
                    std::thread::sleep(REAP_PERIOD);
                    continue;
                }
                match pipe_closed.recv_timeout(POLL_PERIOD) {
                    Ok(()) => open -= 1,
                    Err(RecvTimeoutError::Timeout) => {}
                    // Both readers are gone, so both pipes have closed.
                    Err(RecvTimeoutError::Disconnected) => open = 0,
                }
            }
            Err(e) => break Err(Some(e)),
        }
    };
    if end.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let (stdout, stderr) = (joined(stdout), joined(stderr));
    Ok(match end {
        Ok(status) => Watched::Exited {
            status,
            stdout,
            stderr,
        },
        Err(None) => Watched::TimedOut,
        Err(Some(e)) => Watched::WaitFailed(e),
    })
}

/// Drains `pipe` on a reader thread, which sends on `closed` when the
/// pipe ends.
fn drain(pipe: impl Read + Send + 'static, closed: Sender<()>) -> JoinHandle<BoundedCapture> {
    std::thread::spawn(move || {
        let capture = capture_bounded(pipe, DEFAULT_CAP);
        let _ = closed.send(());
        capture
    })
}

fn joined(reader: JoinHandle<BoundedCapture>) -> String {
    reader
        .join()
        .map(BoundedCapture::into_string)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_streams_pass_through_verbatim() {
        let c = capture_bounded(&b"hello\nworld\n"[..], 64);
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.into_string(), "hello\nworld\n");
    }

    #[test]
    fn long_streams_keep_head_and_tail_with_a_drop_marker() {
        // 100 numbered lines through a budget that holds only a few.
        let text: String = (0..100).map(|i| format!("line-{i:03}\n")).collect();
        let cap = 80;
        let c = capture_bounded(text.as_bytes(), cap);
        let expect_dropped = (text.len() - cap) as u64;
        assert_eq!(c.dropped(), expect_dropped);
        let s = c.into_string();
        assert!(s.starts_with("line-000\n"), "head retained: {s}");
        assert!(s.ends_with("line-099\n"), "tail retained: {s}");
        let marker = format!("... {expect_dropped} bytes dropped ...\n");
        assert!(s.contains(&marker), "{s}");
        // Retained bytes (everything but the inserted marker and the newline
        // that pads an unterminated head) are exactly the budget.
        let padding = usize::from(!s[..s.find(&marker).unwrap()].is_empty());
        assert_eq!(s.len() - marker.len() - padding, cap, "{s}");
    }

    #[test]
    fn capture_is_chunking_invariant() {
        let text: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut byte_at_a_time = BoundedCapture::new(1000);
        for b in &text {
            byte_at_a_time.push(std::slice::from_ref(b));
        }
        let mut one_chunk = BoundedCapture::new(1000);
        one_chunk.push(&text);
        assert_eq!(byte_at_a_time.dropped(), one_chunk.dropped());
        assert_eq!(byte_at_a_time.into_string(), one_chunk.into_string());
    }

    #[test]
    fn result_line_survives_a_runaway_child() {
        // The supervisor parses the *last* marker line from stdout; a
        // runaway child must not evict it.
        let mut noisy = String::new();
        for i in 0..50_000 {
            noisy.push_str(&format!("spam {i}\n"));
        }
        noisy.push_str("SAS_RUNNER_RESULT {\"cell\":\"x\",\"ok\":true}\n");
        let s = capture_bounded(noisy.as_bytes(), DEFAULT_CAP).into_string();
        assert!(
            s.lines().rev().any(|l| l.starts_with("SAS_RUNNER_RESULT ")),
            "tail lost"
        );
    }

    #[test]
    fn watched_children_exit_with_captures_or_time_out() {
        let mut talk = Command::new("sh");
        talk.args(["-c", "echo out; echo err >&2; exit 3"]);
        match run_watched(&mut talk, Duration::from_secs(30), |_| {}).unwrap() {
            Watched::Exited {
                status,
                stdout,
                stderr,
            } => {
                assert_eq!(
                    (status.code(), stdout.as_str(), stderr.as_str()),
                    (Some(3), "out\n", "err\n")
                );
            }
            other => panic!("{other:?}"),
        }
        let mut polls = 0;
        let mut hang = Command::new("sleep");
        hang.arg("30");
        let end = run_watched(&mut hang, Duration::from_millis(100), |_| polls += 1).unwrap();
        assert!(matches!(end, Watched::TimedOut), "{end:?}");
        assert!(polls > 0);
        assert!(run_watched(
            &mut Command::new("/nonexistent/child"),
            Duration::ZERO,
            |_| {}
        )
        .is_err());
    }

    #[test]
    fn a_child_that_closes_its_pipes_and_hangs_is_still_killed_at_its_timeout() {
        let mut mute = Command::new("sh");
        mute.args(["-c", "exec >&- 2>&-; exec sleep 30"]);
        let mut polls = 0;
        let started = Instant::now();
        let end = run_watched(&mut mute, Duration::from_millis(200), |_| polls += 1).unwrap();
        assert!(matches!(end, Watched::TimedOut), "{end:?}");
        // `run_watched` reaps what it kills, so returning long before the
        // child's 30 s sleep ends means the kill landed.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{:?}",
            started.elapsed()
        );
        assert!(polls > 1, "the heartbeat tick kept running: {polls}");
    }

    #[test]
    #[cfg(unix)]
    fn a_child_killed_by_a_signal_is_reported_as_exited() {
        use std::os::unix::process::ExitStatusExt;
        let mut doomed = Command::new("sh");
        doomed.args(["-c", "echo bye; kill -KILL $$"]);
        match run_watched(&mut doomed, Duration::from_secs(30), |_| {}).unwrap() {
            Watched::Exited { status, stdout, .. } => {
                assert_eq!((status.code(), status.signal()), (None, Some(9)));
                assert_eq!(stdout, "bye\n");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_budget_counts_but_keeps_nothing() {
        let c = capture_bounded(&b"anything at all"[..], 0);
        assert_eq!(c.dropped(), 15);
        assert_eq!(c.into_string(), "... 15 bytes dropped ...\n");
    }
}
