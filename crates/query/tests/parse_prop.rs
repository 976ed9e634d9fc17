//! Hostile-input property for the query clause parser: random bytes, and
//! single-byte mutations of the queries `scripts/golden_queries.txt`
//! pins, go through `parse_query` and `run_str`. Each must return `Ok` or
//! an error message, never panic. Replay a failure with `SAS_PTEST_SEED`.

use sas_ptest::{check, Rng};
use sas_query::index::{Index, Val};
use sas_query::{parse_query, run_str};

/// The `$ query <expr>` headers of the golden query file.
fn golden_queries() -> Vec<&'static str> {
    include_str!("../../../scripts/golden_queries.txt")
        .lines()
        .filter_map(|l| l.strip_prefix("$ query "))
        .collect()
}

/// Bytes query text is made of, so random text gets past the tokenizer
/// often enough to reach the clause parser and the executor.
const ALPHABET: &[u8] = b"abcdegiklmnoprstwy019.,()=<>! _\"\n\t\xc3\xa9";

/// Whole words, so random text forms clauses as well as characters.
const WORDS: &[&str] = &[
    "show ",
    "where ",
    "group by ",
    "agg ",
    "sort ",
    "limit ",
    "and ",
    "desc ",
    "asc ",
    "count",
    "max(",
    "min(",
    "sum(",
    "mean(",
    "p50(",
    "p95(",
    "p99(",
    "cycles",
    "mitigation",
    "ok",
    "cpi.mem_bound",
    "benchmark",
];

/// A small index with the columns the golden queries name.
fn index() -> Index {
    let mut idx = Index::new();
    for (i, m) in ["stt", "fence", "unsafe"].into_iter().enumerate() {
        let fields = [
            ("benchmark".to_string(), Val::Str(format!("b{i}"))),
            (
                "cpi.mem_bound".to_string(),
                Val::Num(900.0 + 100.0 * i as f64),
            ),
            ("cycles".to_string(), Val::Num(3000.0 + i as f64)),
            ("mitigation".to_string(), Val::Str(m.to_string())),
            ("ok".to_string(), Val::Str((i != 1).to_string())),
        ];
        idx.push_row(&fields);
    }
    idx.seal();
    idx
}

/// Parses and runs `text`, which may be anything.
fn parse_and_run(idx: &Index, bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = parse_query(&text);
    let _ = run_str(idx, &text);
}

#[test]
fn the_golden_queries_run() {
    let (queries, idx) = (golden_queries(), index());
    assert!(queries.len() >= 3, "{queries:?}");
    for q in queries {
        assert!(run_str(&idx, q).is_ok(), "{q}");
    }
}

#[test]
fn random_text_never_panics() {
    let idx = index();
    check("query_parse_random_text", 1024, |rng| {
        let mut bytes = Vec::new();
        for _ in 0..rng.below(24) {
            if rng.chance(0.4) {
                bytes.extend_from_slice(WORDS[rng.below(WORDS.len() as u64) as usize].as_bytes());
            } else if rng.chance(0.9) {
                bytes.push(ALPHABET[rng.below(ALPHABET.len() as u64) as usize]);
            } else {
                bytes.push(rng.below(256) as u8);
            }
        }
        parse_and_run(&idx, &bytes);
    });
}

/// Replaces, deletes or inserts one byte of `query`.
fn mutate(query: &str, rng: &mut Rng) -> Vec<u8> {
    let mut bytes = query.as_bytes().to_vec();
    let at = rng.below(bytes.len() as u64) as usize;
    let byte = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
    match rng.below(3) {
        0 => bytes[at] = byte,
        1 => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, byte),
    }
    bytes
}

#[test]
fn mutated_golden_queries_never_panic() {
    let (queries, idx) = (golden_queries(), index());
    check("query_parse_mutated_golden", 2048, |rng| {
        let q = queries[rng.below(queries.len() as u64) as usize];
        parse_and_run(&idx, &mutate(q, rng));
    });
}
