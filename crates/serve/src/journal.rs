//! The crash-resilient job journal.
//!
//! Every *accepted* job is appended to a JSONL journal **before** it is
//! enqueued, and every terminal outcome (done / failed / cancelled) is
//! appended when the job resolves. The file is a `sas_bench::jsonl` durable
//! log, the same one the `sas-runner` manifest uses (DESIGN.md §8): one
//! write + flush per row, so a crash can tear at most the final line, and
//! recovery truncates that line in place instead of refusing the file. A
//! row exists once its newline is on disk: a last line without one is torn
//! even if it parses, because its append never returned and so the row was
//! never acknowledged.
//!
//! On startup [`Journal::open`] replays the journal: rows that parse, pair
//! up, and an accepted job without a terminal row is **pending** — the
//! daemon re-enqueues it, and if the job's `sas-snap` checkpoint survived
//! the crash the simulation resumes mid-run instead of replaying. A
//! complete row that does not parse makes the file refused, not repaired.
//! The journal is then compacted (rewritten with only the pending rows, via
//! temp + rename) so it cannot grow without bound across restarts.

use crate::http::json_escape;
use crate::job::JobSpec;
use sas_bench::jsonl;
use sas_telemetry::json::{self, Json};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A job recovered from the journal: accepted, never resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// The job id (ids keep increasing across restarts).
    pub id: u64,
    /// The work itself.
    pub spec: JobSpec,
    /// Remaining deadline budget, in milliseconds (deadlines are durable
    /// as *budget*, not wall-clock instants: a restart re-arms the clock).
    pub deadline_ms: u64,
}

impl PendingJob {
    /// The job's `accepted` journal row.
    fn accepted_row(&self) -> String {
        let mut row = format!(
            "{{\"event\":\"accepted\",\"job\":{},\"deadline_ms\":{}",
            self.id, self.deadline_ms
        );
        for (key, value) in self.spec.journal_fields() {
            row.push_str(&format!(",\"{key}\":{value}"));
        }
        row.push('}');
        row
    }

    /// Decodes an `accepted` row (inverse of [`PendingJob::accepted_row`]).
    /// Fields it does not know, such as the `priority` and `client` of
    /// older rows, are ignored.
    fn from_row(id: u64, row: &Json) -> Option<PendingJob> {
        Some(PendingJob {
            id,
            spec: JobSpec::from_journal(row)?,
            deadline_ms: row.get("deadline_ms")?.as_u64()?,
        })
    }
}

/// What replaying the journal found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Accepted jobs without a terminal row, in acceptance order.
    pub pending: Vec<PendingJob>,
    /// First job id the restarted daemon may hand out.
    pub next_job_id: u64,
    /// Whether a torn trailing line was truncated away.
    pub truncated: bool,
    /// Resolved rows dropped by compaction.
    pub compacted: usize,
}

/// Append-only journal handle.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replaying and compacting
    /// any existing contents first.
    pub fn open(path: &Path) -> std::io::Result<(Journal, Recovery)> {
        let recovery = replay_and_compact(path)?;
        let file = jsonl::open(path)?;
        Ok((Journal { file, path: path.to_path_buf() }, recovery))
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records an accepted job. Call **before** enqueueing: a job the
    /// journal never saw would be lost by a crash, while a journaled job
    /// that never ran is merely re-run.
    pub fn accepted(&mut self, job: &PendingJob) -> std::io::Result<()> {
        jsonl::append(&mut self.file, &job.accepted_row())
    }

    /// Records a terminal outcome for a job.
    pub fn resolved(&mut self, id: u64, outcome: &str) -> std::io::Result<()> {
        jsonl::append(
            &mut self.file,
            &format!(
                "{{\"event\":\"resolved\",\"job\":{id},\"outcome\":\"{}\"}}",
                json_escape(outcome)
            ),
        )
    }
}

fn replay_and_compact(path: &Path) -> std::io::Result<Recovery> {
    let rows = jsonl::read(path)?;
    let mut recovery = Recovery { truncated: rows.torn, ..Recovery::default() };
    if rows.lines.is_empty() {
        return Ok(recovery);
    }
    let invalid = |msg: String| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{}: {msg}", path.display()))
    };
    let mut pending: Vec<PendingJob> = Vec::new();
    let mut replayed = 0usize;
    for (i, line) in rows.lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = json::parse(line).ok();
        let parsed = row.as_ref().and_then(|row| {
            Some((row, row.get("event")?.as_str()?, row.get("job")?.as_u64()?))
        });
        let Some((row, event, id)) = parsed else {
            return Err(invalid(format!("corrupt journal row {}: {line:?}", i + 1)));
        };
        replayed += 1;
        recovery.next_job_id = recovery.next_job_id.max(id + 1);
        match event {
            "accepted" => match PendingJob::from_row(id, row) {
                Some(job) => pending.push(job),
                None => return Err(invalid(format!("unreadable accepted row {}", i + 1))),
            },
            "resolved" => pending.retain(|j| j.id != id),
            _ => {} // forward compatibility: unknown events are ignored
        }
    }
    recovery.compacted = replayed.saturating_sub(pending.len());
    recovery.pending = pending;

    // Compact: rewrite only the pending accepted rows (atomic temp+rename),
    // so restarts never replay an ever-growing history.
    let tmp = path.with_extension("jsonl.compact.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        for job in &recovery.pending {
            writeln!(f, "{}", job.accepted_row())?;
        }
        f.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, Target};

    fn dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("sas-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn spec() -> JobSpec {
        JobSpec::Simulate {
            target: Target::Spec("505.mcf_r".into()),
            mitigation: specasan::Mitigation::Stt,
            iters: 25,
        }
    }

    #[test]
    fn pending_jobs_survive_reopen_and_resolved_jobs_do_not() {
        let path = dir().join("j1.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, r) = Journal::open(&path).unwrap();
        assert!(r.pending.is_empty());
        let a = PendingJob { id: 1, spec: spec(), deadline_ms: 60_000 };
        let b = PendingJob { id: 2, ..a.clone() };
        j.accepted(&a).unwrap();
        j.accepted(&b).unwrap();
        j.resolved(1, "completed").unwrap();
        drop(j);
        let (_, r) = Journal::open(&path).unwrap();
        assert_eq!(r.pending, vec![b]);
        assert_eq!(r.next_job_id, 3);
        // Compaction dropped the resolved pair.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
    }

    #[test]
    fn a_last_row_without_its_newline_is_torn_even_if_it_parses() {
        let path = dir().join("j2.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path).unwrap();
        let a = PendingJob {
            id: 7,
            spec: JobSpec::Lint { program: "ld x1, [x2]\nhlt".into(), suggest: true },
            deadline_ms: 5_000,
        };
        j.accepted(&a).unwrap();
        drop(j);
        // A crash before the newline landed: the row is complete JSON, but
        // its append never returned, so job 7 was never acknowledged as
        // resolved.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"resolved\",\"job\":7,\"outcome\":\"completed\"}").unwrap();
        drop(f);
        let (_, r) = Journal::open(&path).unwrap();
        assert!(r.truncated);
        assert_eq!(r.pending, vec![a], "the torn terminal row must not resolve job 7");
    }

    #[test]
    fn an_older_journal_with_priority_and_client_fields_replays_and_compacts() {
        let path = dir().join("j4.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"event\":\"accepted\",\"job\":3,\"priority\":\"low\",\"deadline_ms\":9000,",
                "\"client\":\"alice\",\"kind\":\"simulate\",\"target\":\"505.mcf_r\",",
                "\"mitigation\":\"stt\",\"iters\":25}\n",
                "{\"event\":\"accepted\",\"job\":4,\"priority\":\"low\",\"deadline_ms\":5000,",
                "\"client\":\"alice\",\"kind\":\"spin\",\"millis\":10}\n",
                "{\"event\":\"resolved\",\"job\":4,\"outcome\":\"completed\"}\n",
            ),
        )
        .unwrap();
        let (_, r) = Journal::open(&path).unwrap();
        assert_eq!(r.pending, vec![PendingJob { id: 3, spec: spec(), deadline_ms: 9000 }]);
        assert_eq!(r.next_job_id, 5);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(!text.contains("\"priority\"") && !text.contains("\"client\""), "{text}");
    }

    #[test]
    fn an_accepted_row_with_an_out_of_range_iteration_count_is_refused() {
        // No live request can carry these counts, so no replay may run them.
        for (i, iters) in ["0", "4294967296"].iter().enumerate() {
            let path = dir().join(format!("j5-{i}.jsonl"));
            std::fs::write(
                &path,
                format!(
                    "{{\"event\":\"accepted\",\"job\":1,\"deadline_ms\":9000,\"kind\":\"simulate\",\
                     \"target\":\"505.mcf_r\",\"mitigation\":\"stt\",\"iters\":{iters}}}\n"
                ),
            )
            .unwrap();
            let err = Journal::open(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "iters {iters}: {err}");
            assert!(err.to_string().contains("unreadable accepted row 1"), "{err}");
        }
    }

    #[test]
    fn corrupt_interior_rows_are_refused() {
        let path = dir().join("j3.jsonl");
        std::fs::write(&path, "not json at all\n{\"event\":\"resolved\",\"job\":1}\n").unwrap();
        assert!(Journal::open(&path).is_err());
    }
}
