//! Crash-safe JSONL campaign manifest.
//!
//! One flat JSON object per line, one line per supervised cell, kept in
//! `sas_bench::jsonl`'s durable log: each record is a single append of the
//! row and its newline, so concurrent workers never interleave inside a row
//! and a supervisor killed mid-write can tear at most the trailing line.
//!
//! The manifest doubles as the campaign checkpoint: [`load_and_repair`]
//! parses it back, truncates a torn trailing line in place, and returns the
//! valid records so `--resume` can skip every cell that already has a row
//! (failed rows count as completed — a deterministic failure would only
//! reproduce).

use sas_bench::jsonl;
use sas_pipeline::json::{self, escape, Json};
use std::fmt::Write as _;
use std::fs::File;
use std::io;
use std::path::Path;

/// One supervised cell's outcome — a manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Cell id (`spec/505.mcf_r/stt`, `chaos/0xc4a05eed`, …).
    pub cell: String,
    /// Whether the cell produced valid numbers.
    pub ok: bool,
    /// Stable exit tag (`halted`, `deadlock`, `timeout`, `panic`, …).
    pub exit: String,
    /// Human diagnostic for failures (truncated; full dumps stay in logs).
    pub detail: String,
    /// Spawn attempts consumed (>1 means environmental retries happened).
    pub attempts: u32,
    /// Simulated cycles (0 when the cell never finished).
    pub cycles: u64,
    /// Whether the cell resumed from a checkpoint or warm-forked from a
    /// baseline image instead of starting cold.
    pub restored: bool,
    /// Wall-clock supervision time for the cell, in milliseconds.
    pub duration_ms: u64,
    /// Repro-bundle directory written by the shrinker, if any.
    pub repro: Option<String>,
    /// The child's final commit-time CPI stack, flat-encoded
    /// (`CpiStack::encode_flat`: `base=12;fetch_stall=3;...`) so every
    /// manifest field stays a scalar.
    pub cpi: Option<String>,
}

impl Record {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"cell\":\"{}\",\"ok\":{},\"exit\":\"{}\",\"detail\":\"{}\",\"attempts\":{},\"cycles\":{}",
            escape(&self.cell),
            self.ok,
            escape(&self.exit),
            escape(&self.detail),
            self.attempts,
            self.cycles
        );
        if self.restored {
            out.push_str(",\"restored\":true");
        }
        let _ = write!(out, ",\"duration_ms\":{}", self.duration_ms);
        if let Some(r) = &self.repro {
            let _ = write!(out, ",\"repro\":\"{}\"", escape(r));
        }
        if let Some(c) = &self.cpi {
            let _ = write!(out, ",\"cpi\":\"{}\"", escape(c));
        }
        out.push('}');
        out
    }

    /// Parses a record from one manifest line.
    pub fn from_json(line: &str) -> Option<Record> {
        let doc = json::parse(line).ok()?;
        let text = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
        let count = |key: &str| doc.get(key).and_then(Json::as_u64);
        Some(Record {
            cell: text("cell")?,
            ok: doc.get("ok")?.as_bool()?,
            exit: text("exit")?,
            detail: text("detail")?,
            attempts: count("attempts")? as u32,
            cycles: count("cycles")?,
            restored: doc.get("restored").and_then(Json::as_bool).unwrap_or(false),
            duration_ms: count("duration_ms")?,
            repro: text("repro"),
            cpi: text("cpi"),
        })
    }
}

/// Append-mode manifest writer; every [`Writer::append`] is one
/// `jsonl::append` (see module docs).
#[derive(Debug)]
pub struct Writer {
    file: File,
}

impl Writer {
    /// Opens (creating if needed) `path` for appending.
    pub fn open(path: &Path) -> io::Result<Writer> {
        Ok(Writer { file: jsonl::open(path)? })
    }

    /// Appends one record as a single write, then flushes.
    pub fn append(&mut self, record: &Record) -> io::Result<()> {
        jsonl::append(&mut self.file, &record.to_json())
    }
}

/// Loads a manifest, repairing torn state in place: a trailing line without
/// its newline is truncated, parsing stops at the first complete line that
/// is not a record and the file is cut back to the rows before it, and the
/// good records are returned. A missing manifest is an empty campaign, not
/// an error.
pub fn load_and_repair(path: &Path) -> io::Result<Vec<Record>> {
    let rows = jsonl::read(path)?;
    let mut records = Vec::with_capacity(rows.lines.len());
    for line in &rows.lines {
        match Record::from_json(line) {
            Some(r) => records.push(r),
            None => {
                // Corrupt: stop trusting the rest.
                jsonl::truncate_rows(path, records.len())?;
                break;
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("sas-runner-manifest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("manifest.jsonl")
    }

    fn sample(cell: &str, ok: bool) -> Record {
        Record {
            cell: cell.to_string(),
            ok,
            exit: if ok { "halted".into() } else { "deadlock".into() },
            detail: if ok { String::new() } else { "MSHR wedged \"hard\"\nline2".into() },
            attempts: 2,
            cycles: 123_456,
            restored: ok,
            duration_ms: 78,
            repro: if ok { None } else { Some("target/repro/x".into()) },
            cpi: if ok { Some("base=100;fetch_stall=2;TaintedAddress=9".into()) } else { None },
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        for r in [sample("spec/505.mcf_r/stt", true), sample("chaos/0xc4a05eed", false)] {
            assert_eq!(Record::from_json(&r.to_json()), Some(r));
        }
        // Rows keep their exact bytes: optional fields are omitted, not null.
        assert_eq!(
            sample("chaos/0xc4a05eed", false).to_json(),
            "{\"cell\":\"chaos/0xc4a05eed\",\"ok\":false,\"exit\":\"deadlock\",\
             \"detail\":\"MSHR wedged \\\"hard\\\"\\nline2\",\"attempts\":2,\"cycles\":123456,\
             \"duration_ms\":78,\"repro\":\"target/repro/x\"}"
        );
    }

    #[test]
    fn writer_appends_and_loader_reads_back() {
        let path = tmp("roundtrip");
        let mut w = Writer::open(&path).unwrap();
        let a = sample("spec/505.mcf_r/stt", true);
        let b = sample("spec/505.mcf_r/fence", false);
        w.append(&a).unwrap();
        w.append(&b).unwrap();
        assert_eq!(load_and_repair(&path).unwrap(), vec![a, b]);
    }

    /// The manifest's policy for a complete line that is not a record:
    /// stop there and cut the file back to the rows before it.
    #[test]
    fn corrupt_middle_line_stops_the_parse() {
        let path = tmp("corrupt");
        std::fs::write(&path, format!("{}\nnot json\n{}\n", sample("a", true).to_json(), sample("b", true).to_json())).unwrap();
        let records = load_and_repair(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].cell, "a");
        // Everything after the corruption was discarded from the file too.
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
    }
}
