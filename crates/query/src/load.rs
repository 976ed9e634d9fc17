//! Schema-tolerant loaders: JSONL artifacts → index rows.
//!
//! Every artifact the suite emits is either newline-delimited JSON
//! objects (runner manifests, bench figure rows, serve journals, fuzz
//! summaries) or a single pretty-printed `BENCH_*.json` document. The
//! loaders here accept both without a declared schema:
//!
//! - nested objects flatten to dotted columns (`cpi.memory_bound`),
//! - booleans become the strings `"true"`/`"false"`,
//! - arrays contribute only a `<name>.len` count column,
//! - unparseable lines are counted and skipped, never fatal,
//! - manifest rows (recognized by their `cell` field) are enriched with
//!   derived `suite`/`benchmark`/`mitigation` columns, a `wall_ms` copy
//!   of `duration_ms`, and decoded `cpi.<bucket>` columns from the flat
//!   `base=12;fetch_stall=3` CPI string,
//! - a `BENCH_*.json` document becomes one row, flattened like a line.
//!
//! Every row gets a `source` column naming the file it came from.

use std::path::{Path, PathBuf};

use sas_telemetry::json::{parse, Json};

use crate::index::{Index, Val};

/// One loaded row: field name → value pairs in emission order.
pub type Row = Vec<(String, Val)>;

/// Flattens a JSON value into dotted columns under `prefix`.
pub fn flatten(prefix: &str, v: &Json, out: &mut Row) {
    match v {
        Json::Null => {}
        Json::Bool(b) => out.push((prefix.to_string(), Val::Str(b.to_string()))),
        Json::Num(n) => out.push((prefix.to_string(), Val::Num(*n))),
        Json::Str(s) => out.push((prefix.to_string(), Val::Str(s.clone()))),
        Json::Obj(m) => {
            for (k, child) in m {
                let key = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten(&key, child, out);
            }
        }
        Json::Arr(items) => {
            let key = if prefix.is_empty() { "len".to_string() } else { format!("{prefix}.len") };
            out.push((key, Val::Num(items.len() as f64)));
        }
    }
}

/// Derives columns a raw row only carries in encoded form: `cell` splits
/// into `suite`/`benchmark`/`mitigation`, `duration_ms` aliases to
/// `wall_ms`, and flat CPI strings decode into `cpi.<bucket>` numeric
/// columns. Applied to every row [`load_str`] produces; callers building
/// rows by hand (e.g. the `sas-serve` `query` method over its live job
/// table) apply it themselves before [`Index::push_row`].
pub fn enrich(row: &mut Row) {
    let get = |row: &Row, name: &str| -> Option<Val> {
        row.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    };
    // Manifest rows: split "spec/505.mcf_r/stt" into queryable parts.
    if let Some(Val::Str(cell)) = get(row, "cell") {
        let mut parts = cell.splitn(3, '/');
        if let Some(suite) = parts.next() {
            if !suite.is_empty() && get(row, "suite").is_none() {
                row.push(("suite".to_string(), Val::Str(suite.to_string())));
            }
            if matches!(suite, "spec" | "parsec") {
                if let (Some(benchmark), Some(mitigation)) = (parts.next(), parts.next()) {
                    if get(row, "benchmark").is_none() {
                        row.push(("benchmark".to_string(), Val::Str(benchmark.to_string())));
                    }
                    if get(row, "mitigation").is_none() {
                        row.push(("mitigation".to_string(), Val::Str(mitigation.to_string())));
                    }
                }
            }
        }
    }
    // Manifests record wall time as duration_ms; queries say wall_ms.
    if let Some(Val::Num(ms)) = get(row, "duration_ms") {
        if get(row, "wall_ms").is_none() {
            row.push(("wall_ms".to_string(), Val::Num(ms)));
        }
    }
    // Flat CPI strings ("base=12;fetch_stall=3;...") decode into the
    // same cpi.<bucket> columns the bench rows' nested objects flatten
    // to. Mitigation sub-buckets keep their own names.
    if let Some(Val::Str(flat)) = get(row, "cpi") {
        for pair in flat.split(';') {
            let Some((k, v)) = pair.split_once('=') else { continue };
            let Ok(n) = v.trim().parse::<f64>() else { continue };
            let key = format!("cpi.{}", k.trim());
            if get(row, &key).is_none() {
                row.push((key, Val::Num(n)));
            }
        }
    }
}

/// Result of loading one artifact.
pub struct Loaded {
    /// Rows ready for [`Index::push_row`].
    pub rows: Vec<Row>,
    /// Lines that failed to parse as a JSON object (torn writes,
    /// progress text interleaved into a log, …).
    pub skipped: usize,
}

/// Loads JSONL text (or a single `BENCH_*.json`-style document).
/// `source` labels every row (usually the file name).
pub fn load_str(text: &str, source: &str) -> Loaded {
    // A whole-file parse that yields one object is a BENCH document;
    // anything else is treated as one JSON object per line.
    if let Ok(doc @ Json::Obj(_)) = parse(text.trim()) {
        return Loaded { rows: vec![object_row(&doc, source)], skipped: 0 };
    }
    let mut rows = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse(line) {
            Ok(doc @ Json::Obj(_)) => rows.push(object_row(&doc, source)),
            _ => skipped += 1,
        }
    }
    Loaded { rows, skipped }
}

/// One JSON object as a flattened, enriched row labelled with `source`.
fn object_row(doc: &Json, source: &str) -> Row {
    let mut row = Row::new();
    flatten("", doc, &mut row);
    enrich(&mut row);
    row.push(("source".to_string(), Val::Str(source.to_string())));
    row
}

/// Loads one artifact file.
pub fn load_file(path: &Path) -> Result<Loaded, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let source = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    Ok(load_str(&text, &source))
}

/// Builds a sealed index over a set of artifact files. Unreadable files
/// are errors; unparseable *lines* are skipped (their count is in the
/// returned stats).
pub fn index_paths(paths: &[PathBuf]) -> Result<(Index, IndexStats), String> {
    let mut idx = Index::new();
    let mut stats = IndexStats::default();
    for path in paths {
        let loaded = load_file(path)?;
        stats.files += 1;
        stats.skipped_lines += loaded.skipped;
        for row in &loaded.rows {
            idx.push_row(row);
        }
    }
    idx.seal();
    stats.rows = idx.rows();
    Ok((idx, stats))
}

/// Ingestion statistics for reporting/benchmarks.
#[derive(Default, Debug, Clone, Copy)]
pub struct IndexStats {
    /// Files ingested.
    pub files: usize,
    /// Total rows indexed.
    pub rows: usize,
    /// Lines skipped as unparseable.
    pub skipped_lines: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Op;

    #[test]
    fn manifest_rows_flatten_and_enrich() {
        let text = concat!(
            r#"{"cell":"spec/505.mcf_r/stt","ok":true,"exit":"ok","cycles":1200,"#,
            r#""duration_ms":42,"cpi":"base=10;memory_bound=3"}"#,
            "\n",
            "not json\n",
            r#"{"cell":"chaos/0xbeef","ok":false,"exit":"abort:tag"}"#,
            "\n",
        );
        let loaded = load_str(text, "manifest.jsonl");
        assert_eq!(loaded.rows.len(), 2);
        assert_eq!(loaded.skipped, 1);
        let mut idx = Index::new();
        for r in &loaded.rows {
            idx.push_row(r);
        }
        idx.seal();
        let m = idx.col("mitigation").unwrap();
        assert_eq!(idx.rows_matching(m, Op::Eq, "stt"), vec![0]);
        let wall = idx.col("wall_ms").unwrap();
        assert_eq!(idx.value(wall, 0), Some(Val::Num(42.0)));
        let mem = idx.col("cpi.memory_bound").unwrap();
        assert_eq!(idx.value(mem, 0), Some(Val::Num(3.0)));
        let suite = idx.col("suite").unwrap();
        assert_eq!(idx.value(suite, 1), Some(Val::Str("chaos".into())));
        assert_eq!(idx.value(idx.col("ok").unwrap(), 1), Some(Val::Str("false".into())));
    }

    #[test]
    fn bench_rows_flatten_nested_cpi() {
        let text = concat!(
            r#"{"bench":"fig6","benchmark":"505.mcf_r","mitigation":"specasan","#,
            r#""cycles":900,"norm":1.08,"restored":false,"#,
            r#""cpi":{"base":0.7,"memory_bound":0.3,"mitigation":{"tsh_unsafe_block":0.08}}}"#,
            "\n"
        );
        let loaded = load_str(text, "fig6.jsonl");
        assert_eq!(loaded.rows.len(), 1);
        let row = &loaded.rows[0];
        let has = |k: &str| row.iter().any(|(name, _)| name == k);
        assert!(has("cpi.memory_bound"));
        assert!(has("cpi.mitigation.tsh_unsafe_block"));
        assert!(has("norm"));
    }

    #[test]
    fn bench_doc_is_one_flat_row() {
        let text = "{\n  \"schema\": \"sas-bench-query-v1\",\n  \"rows\": 75,\n  \"timing\": {\"index_ms\": 1.5}\n}\n";
        let loaded = load_str(text, "BENCH_query.json");
        assert_eq!((loaded.rows.len(), loaded.skipped), (1, 0));
        let get = |k: &str| loaded.rows[0].iter().find(|(name, _)| name == k).map(|(_, v)| v.clone());
        assert_eq!(get("rows"), Some(Val::Num(75.0)));
        assert_eq!(get("timing.index_ms"), Some(Val::Num(1.5)));
        assert_eq!(get("source"), Some(Val::Str("BENCH_query.json".into())));
    }
}
