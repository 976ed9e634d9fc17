//! The query language: parse, plan, execute, render.
//!
//! Grammar (clauses in any order, keywords case-insensitive):
//!
//! ```text
//! query  := clause*
//! clause := "show"  col ("," col)*
//!         | "where" pred ("and" pred)*
//!         | "group" "by" col ("," col)*
//!         | "agg"   agg ("," agg)*
//!         | "sort"  col ("asc" | "desc")?
//!         | "limit" N
//! pred   := col op value            op := = | != | < | <= | > | >=
//! agg    := "count" | fn "(" col ")"
//! fn     := sum | mean | min | max | p50 | p95 | p99
//! ```
//!
//! Values with spaces go in single or double quotes. Predicates are
//! conjunctive only (`and`); missing cells never match and sort last.
//! Percentiles are exact nearest-rank over the group's present numeric
//! values. A `group by` without `agg` defaults to `count`.

use crate::index::{fmt_num, intersect, Index, Op, Val};
use sas_telemetry::json::escape;
use std::fmt::Write as _;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Rows in the group.
    Count,
    /// Sum of present numeric values.
    Sum,
    /// Arithmetic mean of present numeric values.
    Mean,
    /// Minimum present numeric value.
    Min,
    /// Maximum present numeric value.
    Max,
    /// Nearest-rank percentile of present numeric values.
    P50,
    /// Nearest-rank percentile of present numeric values.
    P95,
    /// Nearest-rank percentile of present numeric values.
    P99,
}

impl AggFn {
    fn name(self) -> &'static str {
        match self {
            AggFn::Count => "count",
            AggFn::Sum => "sum",
            AggFn::Mean => "mean",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::P50 => "p50",
            AggFn::P95 => "p95",
            AggFn::P99 => "p99",
        }
    }

    fn parse(name: &str) -> Option<AggFn> {
        Some(match name {
            "count" => AggFn::Count,
            "sum" => AggFn::Sum,
            "mean" | "avg" => AggFn::Mean,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            "p50" | "median" => AggFn::P50,
            "p95" => AggFn::P95,
            "p99" => AggFn::P99,
            _ => return None,
        })
    }
}

/// One aggregate in an `agg` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agg {
    /// The function.
    pub func: AggFn,
    /// Its argument column (`None` for `count`).
    pub col: Option<String>,
}

impl Agg {
    /// The output-column label (`count`, `p95(wall_ms)`, …).
    pub fn label(&self) -> String {
        match &self.col {
            None => self.func.name().to_string(),
            Some(c) => format!("{}({c})", self.func.name()),
        }
    }
}

/// A parsed query, ready for [`run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    /// Output columns for row queries (empty → every populated column).
    pub show: Vec<String>,
    /// Conjunctive predicates.
    pub filters: Vec<(String, Op, String)>,
    /// Grouping columns (empty → row query).
    pub group_by: Vec<String>,
    /// Aggregates (group queries only; empty → `count`).
    pub aggs: Vec<Agg>,
    /// Sort column and direction (`true` = descending).
    pub sort: Option<(String, bool)>,
    /// Row/group cap applied after sorting.
    pub limit: Option<usize>,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Op(Op),
    Comma,
}

fn tokenize(text: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Op(Op::Eq));
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&'=') => {
                toks.push(Tok::Op(Op::Ne));
                i += 2;
            }
            '<' | '>' => {
                let eq = bytes.get(i + 1) == Some(&'=');
                toks.push(Tok::Op(match (c, eq) {
                    ('<', false) => Op::Lt,
                    ('<', true) => Op::Le,
                    ('>', false) => Op::Gt,
                    (_, true) => Op::Ge,
                    _ => unreachable!(),
                }));
                i += if eq { 2 } else { 1 };
            }
            '\'' | '"' => {
                let quote = c;
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err("unterminated quoted string".to_string()),
                        Some(&q) if q == quote => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                    }
                }
                toks.push(Tok::Word(s));
            }
            _ => {
                // Bare words cover column names, cell ids, numbers and
                // agg calls: letters, digits, and . _ / : - + # ( ) %.
                let mut s = String::new();
                while i < bytes.len() {
                    let ch = bytes[i];
                    if ch.is_alphanumeric() || "._/:-+#()%*".contains(ch) {
                        s.push(ch);
                        i += 1;
                    } else {
                        break;
                    }
                }
                if s.is_empty() {
                    return Err(format!("unexpected character {c:?}"));
                }
                toks.push(Tok::Word(s));
            }
        }
    }
    Ok(toks)
}

/// Parses query text into a [`Query`].
pub fn parse_query(text: &str) -> Result<Query, String> {
    let toks = tokenize(text)?;
    let mut q = Query::default();
    let mut i = 0;

    let is_keyword = |w: &str| {
        matches!(
            w.to_ascii_lowercase().as_str(),
            "show" | "where" | "group" | "agg" | "sort" | "limit"
        )
    };
    // Reads a comma-separated word list up to the next clause keyword.
    fn word_list(
        toks: &[Tok],
        i: &mut usize,
        is_keyword: &dyn Fn(&str) -> bool,
        what: &str,
    ) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        loop {
            match toks.get(*i) {
                Some(Tok::Word(w)) if !is_keyword(w) => {
                    out.push(w.clone());
                    *i += 1;
                    if toks.get(*i) == Some(&Tok::Comma) {
                        *i += 1;
                        continue;
                    }
                    break;
                }
                _ if out.is_empty() => return Err(format!("expected {what}")),
                _ => break,
            }
        }
        Ok(out)
    }

    while i < toks.len() {
        let Tok::Word(word) = &toks[i] else {
            return Err(format!("unexpected token near position {i}"));
        };
        match word.to_ascii_lowercase().as_str() {
            "show" => {
                i += 1;
                q.show = word_list(&toks, &mut i, &is_keyword, "column list after 'show'")?;
            }
            "where" => {
                i += 1;
                loop {
                    let Some(Tok::Word(col)) = toks.get(i) else {
                        return Err("expected column after 'where'/'and'".to_string());
                    };
                    let col = col.clone();
                    i += 1;
                    let Some(Tok::Op(op)) = toks.get(i) else {
                        return Err(format!("expected operator after {col:?}"));
                    };
                    let op = *op;
                    i += 1;
                    let Some(Tok::Word(value)) = toks.get(i) else {
                        return Err(format!("expected value after {col} {}", op.token()));
                    };
                    q.filters.push((col, op, value.clone()));
                    i += 1;
                    match toks.get(i) {
                        Some(Tok::Word(w)) if w.eq_ignore_ascii_case("and") => i += 1,
                        _ => break,
                    }
                }
            }
            "group" => {
                i += 1;
                match toks.get(i) {
                    Some(Tok::Word(w)) if w.eq_ignore_ascii_case("by") => i += 1,
                    _ => return Err("expected 'by' after 'group'".to_string()),
                }
                q.group_by = word_list(&toks, &mut i, &is_keyword, "column list after 'group by'")?;
            }
            "agg" => {
                i += 1;
                for spec in word_list(&toks, &mut i, &is_keyword, "aggregate list after 'agg'")? {
                    q.aggs.push(parse_agg(&spec)?);
                }
            }
            "sort" => {
                i += 1;
                let Some(Tok::Word(col)) = toks.get(i) else {
                    return Err("expected column after 'sort'".to_string());
                };
                let col = col.clone();
                i += 1;
                let mut desc = false;
                if let Some(Tok::Word(dir)) = toks.get(i) {
                    if dir.eq_ignore_ascii_case("desc") {
                        desc = true;
                        i += 1;
                    } else if dir.eq_ignore_ascii_case("asc") {
                        i += 1;
                    }
                }
                q.sort = Some((col, desc));
            }
            "limit" => {
                i += 1;
                let Some(Tok::Word(n)) = toks.get(i) else {
                    return Err("expected a number after 'limit'".to_string());
                };
                q.limit =
                    Some(n.parse().map_err(|_| format!("bad limit {n:?} (want an integer)"))?);
                i += 1;
            }
            other => return Err(format!("unknown clause {other:?}")),
        }
    }
    if !q.aggs.is_empty() && q.group_by.is_empty() {
        return Err("'agg' requires 'group by'".to_string());
    }
    Ok(q)
}

fn parse_agg(spec: &str) -> Result<Agg, String> {
    if let Some(f) = AggFn::parse(spec) {
        if f == AggFn::Count {
            return Ok(Agg { func: AggFn::Count, col: None });
        }
        return Err(format!("{spec} needs an argument, e.g. {spec}(wall_ms)"));
    }
    let Some((name, rest)) = spec.split_once('(') else {
        return Err(format!("unknown aggregate {spec:?}"));
    };
    let Some(col) = rest.strip_suffix(')') else {
        return Err(format!("unclosed aggregate call {spec:?}"));
    };
    let func = AggFn::parse(name).ok_or_else(|| format!("unknown aggregate {name:?}"))?;
    if func == AggFn::Count {
        return Ok(Agg { func, col: None });
    }
    if col.is_empty() {
        return Err(format!("{name} needs a column argument"));
    }
    Ok(Agg { func, col: Some(col.to_string()) })
}

/// A query result: named columns over rows of optional cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Output column names.
    pub columns: Vec<String>,
    /// Rows; `None` cells are missing values (rendered `-`).
    pub rows: Vec<Vec<Option<Val>>>,
}

impl Table {
    /// Renders an aligned text table (numbers right-aligned).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|c| c.as_ref().map(Val::fmt).unwrap_or_else(|| "-".to_string()))
                    .collect()
            })
            .collect();
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let right: Vec<bool> = (0..self.columns.len())
            .map(|c| {
                self.rows
                    .iter()
                    .filter_map(|r| r[c].as_ref())
                    .all(|v| matches!(v, Val::Num(_)))
                    && self.rows.iter().any(|r| r[c].is_some())
            })
            .collect();
        let mut out = String::new();
        for (i, name) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if right[i] {
                out.push_str(&format!("{name:>width$}", width = widths[i]));
            } else {
                out.push_str(&format!("{name:<width$}", width = widths[i]));
            }
        }
        out.push('\n');
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&"-".repeat(*w));
        }
        out.push('\n');
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if right[i] {
                    out.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    out.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }

    /// Renders `{"columns":[...],"rows":[[...]]}` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"columns\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape(c));
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match cell {
                    None => out.push_str("null"),
                    Some(Val::Num(n)) => out.push_str(&fmt_num(*n)),
                    Some(Val::Str(s)) => {
                        let _ = write!(out, "\"{}\"", escape(s));
                    }
                }
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// Total order over optional cells: present before missing, numbers
/// before strings, then natural order; `desc` flips only the
/// present-vs-present comparison so missing cells always land last.
pub fn cmp_cells(a: &Option<Val>, b: &Option<Val>, desc: bool) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    match (a, b) {
        (None, None) => Equal,
        (None, Some(_)) => Greater,
        (Some(_), None) => Less,
        (Some(x), Some(y)) => {
            let ord = match (x, y) {
                (Val::Num(p), Val::Num(q)) => p.total_cmp(q),
                (Val::Str(p), Val::Str(q)) => p.cmp(q),
                (Val::Num(_), Val::Str(_)) => Less,
                (Val::Str(_), Val::Num(_)) => Greater,
            };
            if desc {
                ord.reverse()
            } else {
                ord
            }
        }
    }
}

fn resolve(idx: &Index, name: &str) -> Result<usize, String> {
    idx.col(name).ok_or_else(|| {
        let mut names: Vec<&str> = idx.column_names().collect();
        names.sort_unstable();
        format!("unknown column {name:?} (have: {})", names.join(", "))
    })
}

/// Parses and runs query text against a (sealed) index.
pub fn run_str(idx: &Index, text: &str) -> Result<Table, String> {
    run(idx, &parse_query(text)?)
}

/// Executes a parsed query.
pub fn run(idx: &Index, q: &Query) -> Result<Table, String> {
    // Filter: posting-list lookups intersected in ascending-row order.
    let mut matched: Option<Vec<u32>> = None;
    for (col, op, value) in &q.filters {
        let slot = resolve(idx, col)?;
        let hits = idx.rows_matching(slot, *op, value);
        matched = Some(match matched {
            None => hits,
            Some(prev) => intersect(&prev, &hits),
        });
    }
    let rows = matched.unwrap_or_else(|| idx.all_rows());

    if q.group_by.is_empty() {
        row_query(idx, q, rows)
    } else {
        group_query(idx, q, rows)
    }
}

fn row_query(idx: &Index, q: &Query, mut rows: Vec<u32>) -> Result<Table, String> {
    if let Some((col, desc)) = &q.sort {
        let slot = resolve(idx, col)?;
        rows.sort_by(|&a, &b| {
            cmp_cells(&idx.value(slot, a as usize), &idx.value(slot, b as usize), *desc)
        });
    }
    if let Some(n) = q.limit {
        rows.truncate(n);
    }
    // Output columns: the show list verbatim, else every column with at
    // least one present value among the matched rows.
    let slots: Vec<(String, usize)> = if q.show.is_empty() {
        idx.column_names()
            .map(str::to_string)
            .collect::<Vec<_>>()
            .into_iter()
            .filter_map(|name| {
                let slot = idx.col(&name)?;
                rows.iter().any(|&r| idx.value(slot, r as usize).is_some()).then_some((name, slot))
            })
            .collect()
    } else {
        q.show
            .iter()
            .map(|name| Ok((name.clone(), resolve(idx, name)?)))
            .collect::<Result<_, String>>()?
    };
    let table_rows = rows
        .iter()
        .map(|&r| slots.iter().map(|(_, slot)| idx.value(*slot, r as usize)).collect())
        .collect();
    Ok(Table { columns: slots.into_iter().map(|(n, _)| n).collect(), rows: table_rows })
}

fn group_query(idx: &Index, q: &Query, rows: Vec<u32>) -> Result<Table, String> {
    let group_slots: Vec<usize> =
        q.group_by.iter().map(|c| resolve(idx, c)).collect::<Result<_, String>>()?;
    let aggs: Vec<Agg> = if q.aggs.is_empty() {
        vec![Agg { func: AggFn::Count, col: None }]
    } else {
        q.aggs.clone()
    };
    let agg_slots: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| a.col.as_deref().map(|c| resolve(idx, c)).transpose())
        .collect::<Result<_, String>>()?;

    // Group in first-seen order; keys are the display forms (missing
    // cells key as a reserved token so they group together).
    let mut order: Vec<Vec<Option<Val>>> = Vec::new();
    let mut members: Vec<Vec<u32>> = Vec::new();
    let mut slot_of: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for &r in &rows {
        let key_vals: Vec<Option<Val>> =
            group_slots.iter().map(|&s| idx.value(s, r as usize)).collect();
        let key: String = key_vals
            .iter()
            .map(|v| v.as_ref().map(Val::fmt).unwrap_or_else(|| "\u{0}missing".to_string()))
            .collect::<Vec<_>>()
            .join("\u{1}");
        let slot = *slot_of.entry(key).or_insert_with(|| {
            order.push(key_vals);
            members.push(Vec::new());
            order.len() - 1
        });
        members[slot].push(r);
    }

    let mut out_rows: Vec<Vec<Option<Val>>> = Vec::with_capacity(order.len());
    for (key_vals, rows_in) in order.iter().zip(&members) {
        let mut row = key_vals.clone();
        for (agg, slot) in aggs.iter().zip(&agg_slots) {
            row.push(aggregate(idx, agg.func, *slot, rows_in));
        }
        out_rows.push(row);
    }

    let mut columns: Vec<String> = q.group_by.clone();
    columns.extend(aggs.iter().map(Agg::label));

    // Default ordering: by the group key, ascending. An explicit sort
    // may name any output column (group col or aggregate label).
    let sort_cols: Vec<(usize, bool)> = match &q.sort {
        Some((name, desc)) => {
            let pos = columns
                .iter()
                .position(|c| c == name)
                .or_else(|| {
                    // Accept aliases of group columns too.
                    let target = idx.col(name)?;
                    columns[..q.group_by.len()]
                        .iter()
                        .position(|c| idx.col(c) == Some(target))
                })
                .ok_or_else(|| {
                    format!("sort column {name:?} is not in the output (have: {})",
                        columns.join(", "))
                })?;
            vec![(pos, *desc)]
        }
        None => (0..q.group_by.len()).map(|i| (i, false)).collect(),
    };
    let mut perm: Vec<usize> = (0..out_rows.len()).collect();
    perm.sort_by(|&a, &b| {
        for &(col, desc) in &sort_cols {
            let ord = cmp_cells(&out_rows[a][col], &out_rows[b][col], desc);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    });
    let mut rows_sorted: Vec<Vec<Option<Val>>> = perm.into_iter().map(|i| out_rows[i].clone()).collect();
    if let Some(n) = q.limit {
        rows_sorted.truncate(n);
    }
    Ok(Table { columns, rows: rows_sorted })
}

fn aggregate(idx: &Index, func: AggFn, slot: Option<usize>, rows: &[u32]) -> Option<Val> {
    if func == AggFn::Count {
        return Some(Val::Num(rows.len() as f64));
    }
    let slot = slot?;
    let mut vals: Vec<f64> = rows
        .iter()
        .filter_map(|&r| match idx.value(slot, r as usize) {
            Some(Val::Num(n)) => Some(n),
            _ => None,
        })
        .collect();
    if vals.is_empty() {
        return None;
    }
    vals.sort_by(|a, b| a.total_cmp(b));
    let n = vals.len();
    let pct = |q: f64| {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        vals[rank - 1]
    };
    Some(Val::Num(match func {
        AggFn::Count => unreachable!(),
        AggFn::Sum => vals.iter().sum(),
        AggFn::Mean => vals.iter().sum::<f64>() / n as f64,
        AggFn::Min => vals[0],
        AggFn::Max => vals[n - 1],
        AggFn::P50 => pct(0.50),
        AggFn::P95 => pct(0.95),
        AggFn::P99 => pct(0.99),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> Index {
        let mut idx = Index::new();
        let rows = [
            ("spec/a/stt", "stt", 10.0, 0.5, true),
            ("spec/a/fence", "fence", 30.0, 0.1, true),
            ("spec/b/stt", "stt", 20.0, 0.9, true),
            ("spec/b/fence", "fence", 25.0, 0.2, false),
        ];
        for (cell, m, wall, mem, ok) in rows {
            idx.push_row(&[
                ("cell".into(), Val::Str(cell.into())),
                ("mitigation".into(), Val::Str(m.into())),
                ("duration_ms".into(), Val::Num(wall)),
                ("cpi.memory_bound".into(), Val::Num(mem)),
                ("ok".into(), Val::Str(ok.to_string())),
            ]);
        }
        idx.seal();
        idx
    }

    #[test]
    fn parses_the_issue_query() {
        let q = parse_query("where mitigation=stt and cpi.mem_bound>0.3 sort wall_ms desc limit 5")
            .unwrap();
        assert_eq!(q.filters.len(), 2);
        assert_eq!(q.filters[0], ("mitigation".into(), Op::Eq, "stt".into()));
        assert_eq!(q.filters[1], ("cpi.mem_bound".into(), Op::Gt, "0.3".into()));
        assert_eq!(q.sort, Some(("wall_ms".into(), true)));
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn runs_filter_sort_limit_via_aliases() {
        let t = run_str(
            &idx(),
            "show cell,wall_ms where mitigation=stt and cpi.mem_bound>0.3 sort wall_ms desc limit 5",
        )
        .unwrap();
        assert_eq!(t.columns, vec!["cell", "wall_ms"]);
        let cells: Vec<String> =
            t.rows.iter().map(|r| r[0].as_ref().unwrap().fmt()).collect();
        assert_eq!(cells, vec!["spec/b/stt", "spec/a/stt"]);
    }

    #[test]
    fn group_by_aggregates() {
        let t = run_str(
            &idx(),
            "where ok=true group by mitigation agg count,mean(wall_ms),p95(cpi.memory_bound) sort mitigation",
        )
        .unwrap();
        assert_eq!(
            t.columns,
            vec!["mitigation", "count", "mean(wall_ms)", "p95(cpi.memory_bound)"]
        );
        assert_eq!(t.rows.len(), 2);
        // fence: one ok row (30ms); stt: two ok rows (10, 20 → mean 15).
        assert_eq!(t.rows[0][0], Some(Val::Str("fence".into())));
        assert_eq!(t.rows[0][2], Some(Val::Num(30.0)));
        assert_eq!(t.rows[1][0], Some(Val::Str("stt".into())));
        assert_eq!(t.rows[1][2], Some(Val::Num(15.0)));
        assert_eq!(t.rows[1][3], Some(Val::Num(0.9)));
    }

    #[test]
    fn group_sort_by_aggregate_desc() {
        let t = run_str(&idx(), "group by mitigation agg count,max(wall_ms) sort max(wall_ms) desc")
            .unwrap();
        assert_eq!(t.rows[0][0], Some(Val::Str("fence".into())));
    }

    #[test]
    fn unknown_columns_are_reported() {
        assert!(run_str(&idx(), "where nope=1").unwrap_err().contains("unknown column"));
        assert!(run_str(&idx(), "sort nope").is_err());
        assert!(parse_query("agg count").unwrap_err().contains("group by"));
        assert!(parse_query("where x ! 3").is_err());
        assert!(parse_query("bogus").unwrap_err().contains("unknown clause"));
    }

    #[test]
    fn table_renders_and_serializes() {
        let t = run_str(&idx(), "show mitigation,wall_ms sort wall_ms limit 2").unwrap();
        let text = t.render();
        assert!(text.starts_with("mitigation"));
        assert!(text.contains("stt"));
        let json = t.to_json();
        assert!(json.starts_with("{\"columns\":[\"mitigation\",\"wall_ms\"]"));
        assert!(json.contains("[\"stt\",10]"));
        assert!(sas_telemetry::json::parse(&json).is_ok());
    }

    #[test]
    fn quoted_values_and_missing_sort_last() {
        let mut i = idx();
        i.push_row(&[("mitigation".into(), Val::Str("stt".into()))]); // no wall
        i.seal();
        let t = run_str(&i, "show cell,wall_ms where mitigation='stt' sort wall_ms").unwrap();
        assert_eq!(t.rows.last().unwrap()[1], None);
    }
}
