//! JSON-lines result emission, and the workspace's one durable JSONL log.
//!
//! Every bench target prints its human-readable tables *and* emits one JSON
//! object per (benchmark, mitigation) cell so the bench trajectory can be
//! tracked mechanically across commits. Records go to stdout (prefixed with
//! nothing — one object per line) and, when `SAS_BENCH_JSONL` names a file,
//! are appended there too.
//!
//! # The durable log
//!
//! [`open`], [`append`] and [`read`] are the one append-a-row discipline
//! every JSONL file the workspace persists follows: `SAS_BENCH_JSONL`
//! rows, the `sas-runner` manifest and the `sas-serve` journal.
//!
//! * A row goes down as a **single** `write_all(row + "\n")` on a
//!   descriptor opened in append mode, then a flush — so concurrent writers
//!   never interleave inside one another's rows, and a writer killed
//!   mid-append can tear at most its own trailing line.
//! * A row exists once its newline is on disk. [`read`] returns complete
//!   lines only and truncates a trailing fragment in place — even one that
//!   would parse, because the append that wrote it never returned, so the
//!   row was never acknowledged.
//! * What a complete line that fails to parse means is the caller's
//!   policy: the manifest cuts the log back to the last good row
//!   ([`truncate_rows`]), the journal refuses the file.

use sas_pipeline::{json, RunExit};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;

/// A JSON scalar for one record field.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// A string field.
    Str(&'a str),
    /// A float field (serialized with full precision; NaN/inf become null).
    F64(f64),
    /// An unsigned integer field.
    U64(u64),
    /// A boolean field.
    Bool(bool),
    /// A pre-serialized JSON fragment spliced in verbatim (e.g. the nested
    /// `cpi` breakdown from `CpiStack::to_json`). The caller guarantees it
    /// is well-formed JSON.
    Raw(&'a str),
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Stable tag naming how a run ended; the `exit` field of result records.
pub fn exit_tag(exit: &RunExit) -> &'static str {
    match exit {
        RunExit::Halted => "halted",
        RunExit::Faulted(_) => "faulted",
        RunExit::CycleLimit => "cycle_limit",
        RunExit::Deadlock(_) => "deadlock",
        RunExit::Divergence(_) => "divergence",
        RunExit::Error(_) => "error",
    }
}

/// Whether a cell's numbers mean anything: only a run that retired its whole
/// program produces a valid perf cell. Cycle-limited, deadlocked, diverged,
/// faulted and errored runs must be tagged as aborted, never averaged in.
pub fn valid_cell(exit: &RunExit) -> bool {
    matches!(exit, RunExit::Halted)
}

/// The `exit`/`valid` field pair for one run, ready to splice into a record.
pub fn exit_fields(exit: &RunExit) -> [(&'static str, Value<'static>); 2] {
    [("exit", Value::Str(exit_tag(exit))), ("valid", Value::Bool(valid_cell(exit)))]
}

/// Renders one record as a single JSON line (no trailing newline).
pub fn render(bench: &str, fields: &[(&str, Value)]) -> String {
    let mut out = format!("{{\"bench\":\"{}\"", json::escape(bench));
    for (key, value) in fields {
        let _ = write!(out, ",\"{}\":", json::escape(key));
        match value {
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", json::escape(s));
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Raw(j) => out.push_str(j),
        }
    }
    out.push('}');
    out
}

/// Emits one result record: prints the JSON line to stdout and [`append`]s
/// it to the file named by `SAS_BENCH_JSONL`, if that variable is set.
pub fn emit(bench: &str, fields: &[(&str, Value)]) {
    let line = render(bench, fields);
    println!("{line}");
    if let Ok(path) = std::env::var("SAS_BENCH_JSONL") {
        if !path.is_empty() {
            let _ = open(Path::new(&path)).and_then(|mut f| append(&mut f, &line));
        }
    }
}

/// Opens (creating it and its directory if needed) the log at `path` for
/// appending.
pub fn open(path: &Path) -> io::Result<File> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    OpenOptions::new().create(true).append(true).open(path)
}

/// Appends one row (which must not contain a newline) as a single write,
/// then flushes.
pub fn append(file: &mut File, row: &str) -> io::Result<()> {
    file.write_all(format!("{row}\n").as_bytes())?;
    file.flush()
}

/// The complete rows of a log, as [`read`] found them.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Rows {
    /// Every newline-terminated line, newline stripped, in file order.
    pub lines: Vec<String>,
    /// Whether a trailing fragment without a newline was truncated away.
    pub torn: bool,
}

/// Reads the complete rows of the log at `path`, truncating a torn
/// trailing fragment in place. A missing log has no rows.
pub fn read(path: &Path) -> io::Result<Rows> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Rows::default()),
        Err(e) => return Err(e),
    };
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
    let torn = complete < bytes.len();
    if torn {
        OpenOptions::new().write(true).open(path)?.set_len(complete as u64)?;
    }
    let lines = bytes[..complete]
        .split_inclusive(|&b| b == b'\n')
        .map(|l| String::from_utf8_lossy(&l[..l.len() - 1]).into_owned())
        .collect();
    Ok(Rows { lines, torn })
}

/// Cuts the log at `path` back to its first `keep` rows.
pub fn truncate_rows(path: &Path, keep: usize) -> io::Result<()> {
    let bytes = std::fs::read(path)?;
    let len: usize = bytes.split_inclusive(|&b| b == b'\n').take(keep).map(<[u8]>::len).sum();
    OpenOptions::new().write(true).open(path)?.set_len(len as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn renders_scalar_types() {
        let line = render(
            "fig6",
            &[
                ("benchmark", Value::Str("505.mcf_r")),
                ("norm", Value::F64(1.25)),
                ("cycles", Value::U64(42)),
                ("leaked", Value::Bool(false)),
            ],
        );
        assert_eq!(
            line,
            "{\"bench\":\"fig6\",\"benchmark\":\"505.mcf_r\",\"norm\":1.25,\"cycles\":42,\"leaked\":false}"
        );
    }

    #[test]
    fn raw_fragments_are_spliced_verbatim() {
        let line = render(
            "fig6",
            &[("norm", Value::F64(1.0)), ("cpi", Value::Raw("{\"base\":7,\"mitigation\":{}}"))],
        );
        assert_eq!(line, "{\"bench\":\"fig6\",\"norm\":1,\"cpi\":{\"base\":7,\"mitigation\":{}}}");
    }

    #[test]
    fn escapes_strings_and_maps_nonfinite_to_null() {
        let line = render("t", &[("s", Value::Str("a\"b\\c\nd")), ("v", Value::F64(f64::NAN))]);
        assert_eq!(line, "{\"bench\":\"t\",\"s\":\"a\\\"b\\\\c\\nd\",\"v\":null}");
    }

    #[test]
    fn aborted_exits_are_tagged_and_invalid() {
        use sas_pipeline::{CrashDump, Divergence, DivergenceKind, SimError};
        let deadlock = RunExit::Deadlock(Box::new(CrashDump {
            cycle: 99,
            cores: Vec::new(),
            mshrs: Vec::new(),
            fault_plan: Some("seed=0x2a".to_string()),
        }));
        let divergence = RunExit::Divergence(Box::new(Divergence {
            core: 0,
            seq: 7,
            cycle: 40,
            pc: 3,
            inst: "ADD x1, x1, #1".to_string(),
            kind: DivergenceKind::RegValue,
            expected: "x1 = 2".to_string(),
            actual: "x1 = 3".to_string(),
        }));
        let error = RunExit::Error(SimError::internal("test invariant"));
        for (exit, tag) in [
            (&RunExit::CycleLimit, "cycle_limit"),
            (&deadlock, "deadlock"),
            (&divergence, "divergence"),
            (&error, "error"),
        ] {
            assert_eq!(exit_tag(exit), tag);
            assert!(!valid_cell(exit), "{tag} must never be a valid cell");
        }
        assert_eq!(exit_tag(&RunExit::Halted), "halted");
        assert!(valid_cell(&RunExit::Halted));
    }

    #[test]
    fn exit_fields_splice_into_records() {
        let line = render(
            "fig6",
            &[("benchmark", Value::Str("505.mcf_r"))]
                .iter()
                .copied()
                .chain(exit_fields(&RunExit::CycleLimit))
                .collect::<Vec<_>>()
                .as_slice(),
        );
        assert_eq!(
            line,
            "{\"bench\":\"fig6\",\"benchmark\":\"505.mcf_r\",\"exit\":\"cycle_limit\",\"valid\":false}"
        );
    }

    fn log(name: &str, contents: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sas-jsonl-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        std::fs::write(&path, contents).unwrap();
        path
    }

    fn rows(lines: &[&str], torn: bool) -> Rows {
        Rows { lines: lines.iter().map(|s| s.to_string()).collect(), torn }
    }

    #[test]
    fn a_torn_fragment_is_truncated_in_place() {
        let path = log("fragment", "{\"a\":1}\n{\"b\":");
        assert_eq!(read(&path).unwrap(), rows(&["{\"a\":1}"], true));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");
        // The repaired log appends cleanly and reads back untorn.
        append(&mut open(&path).unwrap(), "{\"c\":3}").unwrap();
        assert_eq!(read(&path).unwrap(), rows(&["{\"a\":1}", "{\"c\":3}"], false));
        assert_eq!(read(&path.with_file_name("missing.jsonl")).unwrap(), Rows::default());
    }

    #[test]
    fn a_parsable_line_without_its_newline_is_still_torn() {
        // Its append never returned, so the row was never acknowledged.
        let path = log("unacked", "{\"a\":1}\n{\"b\":2}");
        assert_eq!(read(&path).unwrap(), rows(&["{\"a\":1}"], true));
        std::fs::write(&path, "{\"b\":2}").unwrap();
        assert_eq!(read(&path).unwrap(), rows(&[], true));
        assert_eq!(std::fs::read(&path).unwrap(), b"");
    }

    #[test]
    fn truncate_rows_keeps_a_prefix_of_whole_rows() {
        let path = log("prefix", "{\"a\":1}\nnot json\n{\"c\":3}\n");
        truncate_rows(&path, 1).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");
        truncate_rows(&path, 0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
    }
}
