//! Property tests for the workspace JSON codec: `escape` round-trips
//! through `parse`, and `parse` returns (never panics) on arbitrary bytes
//! and on single-byte mutations of the rows the workspace really persists.
//! Replay a failure with `SAS_PTEST_SEED`.

use sas_ptest::{check, gens, Rng};
use sas_telemetry::json::{escape, parse, Json};

/// One real row of each persisted kind: a `sas-runner` manifest row, a
/// `sas-serve` journal row, a bench JSONL row and a heartbeat line.
const ROWS: [&str; 4] = [
    r#"{"cell":"spec/505.mcf_r/stt","ok":false,"exit":"deadlock","detail":"MSHR \"wedged\"\nline2","attempts":2,"cycles":123456,"restored":true,"duration_ms":78,"repro":"target/repro/x","cpi":"base=100;fetch_stall=2;TaintedAddress=9"}"#,
    r#"{"event":"accepted","job":7,"priority":"high","deadline_ms":5000,"client":"c","kind":"lint","program":".entry main\nmain:\nLDRW X1, [X2]\nHALT\n","suggest":true}"#,
    r#"{"bench":"fig6","benchmark":"505.mcf_r","mitigation":"STT","cycles":42,"norm":1.25,"restored":false,"cpi":{"base":7,"mitigation":{"TaintedAddress":3}},"exit":"halted","valid":true}"#,
    r#"{"schema":"sas-hb-v2","cycle":9,"committed":5,"cpi":"base=4;memory_bound=5"}"#,
];

/// Bytes JSON syntax is made of, so random documents get past the first
/// character often enough to exercise the nested paths.
const ALPHABET: &[u8] = b"{}[]\",:\\/ubnrtf0123456789aeE+-. \n\x01\xc3\xa9";

#[test]
fn escaped_strings_parse_back_to_themselves() {
    let text = gens::escape_text(48);
    check("json_escape_round_trip", 512, |rng| {
        let s = text.sample(rng);
        let doc = format!("\"{}\"", escape(&s));
        assert_eq!(parse(&doc), Ok(Json::Str(s)), "{doc:?}");
    });
}

fn parse_lossy(bytes: &[u8]) -> Result<Json, String> {
    parse(&String::from_utf8_lossy(bytes))
}

#[test]
fn parse_never_panics_on_random_bytes() {
    check("json_parse_random_bytes", 512, |rng| {
        let len = rng.below(96) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.chance(0.8) {
                    ALPHABET[rng.below(ALPHABET.len() as u64) as usize]
                } else {
                    rng.below(256) as u8
                }
            })
            .collect();
        let _ = parse_lossy(&bytes);
    });
}

/// Replaces, deletes or inserts one byte of `row`.
fn mutate(row: &str, rng: &mut Rng) -> Vec<u8> {
    let mut bytes = row.as_bytes().to_vec();
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
fn parse_never_panics_on_mutated_real_rows() {
    for row in ROWS {
        assert!(parse(row).is_ok(), "{row}");
    }
    check("json_parse_mutated_rows", 1024, |rng| {
        let row = ROWS[rng.below(ROWS.len() as u64) as usize];
        let _ = parse_lossy(&mutate(row, rng));
    });
}
