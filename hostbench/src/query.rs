//! `query`: campaign analytics through `sas-query` over a seeded corpus.
//!
//! The corpus is 25k rows of the three artifact kinds the suite writes:
//! runner manifest rows, fig6 bench rows with nested CPI objects, and
//! daemon journal rows. Set-up writes it and ingests it (JSON decoding,
//! flattening, the columnar index); the ops are executions of seven pinned
//! queries, round-robin. It is the only workload heavy on
//! `sas_telemetry::json` and query decoding.

use crate::common::{self, Ctx, Digest, Pass};
use crate::report::Outcome;
use crate::spec_grid::COLUMNS;
use crate::trace::Tracer;
use sas_ptest::Rng;
use sas_query::load::load_file;
use sas_query::{Index, Table};
use sas_workloads::{parsec_suite, spec_suite};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rows of each artifact kind: manifest, fig6 bench, journal.
const ROWS: [usize; 3] = [10_000, 10_000, 5_000];

/// Room reserved per corpus row, above the longest row. Reserving it up
/// front keeps the corpus's allocations, and so `peak_rss_mb`, the same
/// size for every seed.
const ROW_BYTES: usize = 512;

/// The pinned queries: the three golden tier-1 queries, a group-by p99, a
/// range filter, a sort/limit, and a journal slice. Seven, an odd count,
/// so the median execution falls inside one query's samples.
pub const QUERIES: [&str; 7] = [
    "where ok=true group by mitigation agg count sort mitigation",
    "where cpi.mem_bound>1000 group by mitigation agg count,max(cycles) sort mitigation",
    "show benchmark,mitigation,cycles where mitigation=fence sort cycles desc limit 3",
    "where bench=fig6 group by benchmark agg p99(cycles) sort benchmark",
    "where duration_ms>=500 and duration_ms<1000 group by mitigation agg count,mean(duration_ms) sort mitigation",
    "show benchmark,mitigation,norm where bench=fig6 sort norm desc limit 20",
    "where event=accepted group by kind agg count sort kind",
];

/// The corpus as `(file name, JSONL text)`, from `seed`.
pub fn corpus(seed: u64) -> [(&'static str, String); 3] {
    let mut rng = Rng::new(seed);
    let spec: Vec<&str> = spec_suite().iter().map(|p| p.name).collect();
    let parsec: Vec<&str> = parsec_suite().iter().map(|p| p.name).collect();
    let pick = |rng: &mut Rng, v: &[&'static str]| v[rng.below(v.len() as u64) as usize];
    let tokens: Vec<&str> = COLUMNS.iter().map(|m| m.token()).collect();

    let mut manifest = String::with_capacity(ROWS[0] * ROW_BYTES);
    for _ in 0..ROWS[0] {
        let (suite, bench) = if rng.chance(0.7) {
            ("spec", pick(&mut rng, &spec))
        } else {
            ("parsec", pick(&mut rng, &parsec))
        };
        let ok = rng.chance(0.97);
        let cycles = rng.range(1_000, 800_000);
        let mem = rng.below(cycles);
        let _ = writeln!(
            manifest,
            "{{\"cell\":\"{suite}/{bench}/{}\",\"ok\":{ok},\"exit\":\"{}\",\"detail\":\"\",\"attempts\":{},\
             \"cycles\":{cycles},\"duration_ms\":{},\"cpi\":\"base={};fetch_stall={};mispredict_recovery={};\
             memory_bound={mem};tsh_unsafe_block=0\"}}",
            pick(&mut rng, &tokens),
            if ok { "halted" } else { "deadlock" },
            rng.range(1, 4),
            rng.range(1, 3_000),
            rng.below(cycles - mem),
            rng.below(64),
            rng.below(5_000),
        );
    }
    let mut bench = String::with_capacity(ROWS[1] * ROW_BYTES);
    for _ in 0..ROWS[1] {
        let cycles = rng.range(1_000, 800_000);
        let _ = writeln!(
            bench,
            "{{\"bench\":\"fig6\",\"benchmark\":\"{}\",\"mitigation\":\"{}\",\"cycles\":{cycles},\
             \"committed\":{},\"norm\":{},\"restored\":false,\"cpi\":{{\"base\":{},\"fetch_stall\":{},\
             \"mispredict_recovery\":{},\"memory_bound\":{},\"tsh_unsafe_block\":0,\
             \"mitigation\":{{\"BarrierSpecLoad\":{}}}}}}}",
            pick(&mut rng, &spec),
            pick(&mut rng, &tokens),
            rng.below(cycles),
            rng.range_f64(0.9, 2.5),
            rng.below(cycles / 4),
            rng.below(64),
            rng.below(5_000),
            rng.below(cycles / 2),
            rng.below(cycles / 4),
        );
    }
    let mut journal = String::with_capacity(ROWS[2] * ROW_BYTES);
    for job in 1..=ROWS[2] / 2 {
        let _ = writeln!(
            journal,
            "{{\"event\":\"accepted\",\"job\":{job},\"priority\":\"normal\",\"deadline_ms\":120000,\
             \"client\":\"127.0.0.1\",\"kind\":\"{}\",\"target\":\"{}\",\"mitigation\":\"{}\",\"iters\":{}}}",
            if rng.chance(0.8) { "simulate" } else { "trace" },
            pick(&mut rng, &spec),
            pick(&mut rng, &tokens),
            rng.range(1, 100),
        );
        let _ = writeln!(
            journal,
            "{{\"event\":\"resolved\",\"job\":{job},\"outcome\":\"{}\"}}",
            if rng.chance(0.95) {
                "completed"
            } else {
                "deadline"
            }
        );
    }
    [
        ("manifest.jsonl", manifest),
        ("fig6.jsonl", bench),
        ("journal.jsonl", journal),
    ]
}

/// Writes the corpus and ingests it: per file, the loader (JSON decoding
/// and flattening), then the index build.
fn setup(ctx: &Ctx, tr: &Tracer, dir: &Path) -> Result<Index, String> {
    let files: Vec<PathBuf> = corpus(ctx.seed)
        .iter()
        .map(|(name, text)| {
            let path = dir.join(name);
            std::fs::write(&path, text)
                .map(|()| path)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut idx = Index::new();
    let mut skipped = 0;
    for f in &files {
        let loaded = tr.span("query.load", || load_file(f))?;
        skipped += loaded.skipped;
        tr.span("query.index", || {
            loaded.rows.iter().for_each(|r| idx.push_row(r))
        });
    }
    tr.span("query.index", || idx.seal());
    let want: usize = ROWS.iter().sum();
    if idx.rows() != want || skipped != 0 {
        return Err(format!(
            "ingested {} rows ({skipped} skipped), expected {want}",
            idx.rows()
        ));
    }
    Ok(idx)
}

fn pass(
    ctx: &Ctx,
    tr: &Tracer,
    idx: &Index,
    first: &mut Vec<Table>,
    problems: &mut Vec<String>,
) -> Result<Pass, String> {
    let mut failed = 0;
    let (rounds, round_s) = common::measure(tr, || {
        common::rounds(ctx.seconds, |r| {
            let mut ms = Vec::with_capacity(QUERIES.len());
            for (q, text) in QUERIES.iter().enumerate() {
                let t = Instant::now();
                let table = tr.group("query.run", (r * QUERIES.len() + q) as u64, || {
                    sas_query::run_str(idx, text)
                });
                ms.push(common::ms(t));
                match table {
                    Ok(t) if first.len() == q => first.push(t),
                    Ok(t) if first[q] == t => {}
                    Ok(_) => {
                        failed += 1;
                        problems.push(format!(
                            "q{} returned a different table than its first run",
                            q + 1
                        ));
                    }
                    Err(e) => {
                        failed += 1;
                        problems.push(format!("q{}: {e}", q + 1));
                    }
                }
            }
            Ok(ms)
        })
    })?;
    Ok(Pass {
        rounds,
        round_s,
        failed,
    })
}

fn layer_metrics(ctx: &Ctx, o: &mut Outcome, tr: &Tracer, pass: &Pass) {
    let names = [
        "query.exec_us.q1.p50",
        "query.exec_us.q2.p50",
        "query.exec_us.q3.p50",
        "query.exec_us.q4.p50",
        "query.exec_us.q5.p50",
        "query.exec_us.q6.p50",
        "query.exec_us.q7.p50",
    ];
    for (name, ms) in names.into_iter().zip(pass.typical_ms()) {
        o.set(name, ms * 1e3);
    }
    let spans = tr.spans();
    let total_s = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .sum::<f64>()
    };
    let rows: usize = ROWS.iter().sum();
    o.set("query.load_rows_per_s", rows as f64 / total_s("query.load"));
    o.set(
        "query.index_rows_per_s",
        rows as f64 / total_s("query.index"),
    );

    // The JSON decoder alone, over every corpus line.
    let texts = corpus(ctx.seed);
    let bytes: usize = texts.iter().map(|(_, t)| t.len()).sum();
    let t = Instant::now();
    let bad = tr.span("json.parse", || {
        texts
            .iter()
            .flat_map(|(_, t)| t.lines())
            .filter(|l| sas_telemetry::json::parse(l).is_err())
            .count()
    });
    let secs = common::secs(t);
    if bad > 0 {
        o.problem(format!("{bad} corpus lines do not parse"));
    }
    o.set(
        "json.parse_mb_per_s",
        bytes as f64 / (1 << 20) as f64 / secs,
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::new("query", ctx.seed, ctx.seconds, trace);
    let dir = ctx.fresh_dir("query")?;
    let tr = Tracer::new(trace);
    let (idx, setup_s) = common::setup(trace, &tr, |tr| setup(ctx, tr, &dir))?;
    let mut first = Vec::new();
    let mut problems = Vec::new();
    let untraced = pass(ctx, &Tracer::new(false), &idx, &mut first, &mut problems)?;
    if trace {
        let traced = pass(ctx, &tr, &idx, &mut first, &mut problems)?;
        layer_metrics(ctx, &mut o, &tr, &traced);
        common::fill_trace(
            &mut o,
            &untraced,
            &traced,
            &tr.spans(),
            &ctx.state.join("spans.jsonl"),
        );
    } else {
        common::fill_e2e(&mut o, setup_s, &untraced, crate::proc::peak_rss_mb(None));
    }
    let mut d = Digest::default();
    first.iter().for_each(|t| d.str(&t.to_json()));
    o.digest = d.value();
    problems.truncate(5);
    o.problems.extend(problems);
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_seeded_and_every_query_parses() {
        let a = corpus(3);
        assert_eq!(a, corpus(3));
        assert_ne!(a[0].1, corpus(4)[0].1);
        for (i, (_, text)) in a.iter().enumerate() {
            assert_eq!(text.lines().count(), ROWS[i]);
            assert!(text.lines().all(|l| l.len() < ROW_BYTES));
        }
        for q in QUERIES {
            sas_query::parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }
}
