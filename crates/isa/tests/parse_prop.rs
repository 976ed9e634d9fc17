//! Property tests for the `.sasm` assembler, which `sas-serve` runs on
//! program text straight from a request: `parse_program` returns a program
//! or a `ParseError` on any input and never panics, and every program of
//! the fuzz corpus round-trips through `to_sasm`. A panicking input is
//! shrunk line by line before it is reported. Replay a failure with
//! `SAS_PTEST_SEED`.

use sas_isa::parse_program;
use sas_ptest::{check, gen, shrink, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Characters `.sasm` is made of, so random inputs reach the label,
/// directive and operand paths often enough.
const ALPHABET: &[u8] = b"abcLXx0123456789_:;/.#,[]- \t\n\nentrydata=MOVZADDBLRCSTGHT";

/// Mnemonics (and the two directives) spliced into corpus programs.
const MNEMONICS: &[&str] = &[
    "MOVZ", "MOVK", "MOV", "ADD", "SUB", "UDIV", "CMP", "B", "B.EQ", "B.XX", "CBZ", "CBNZ",
    "BL", "BR", "BLR", "RET", "LDR", "LDRB", "STR", "STRW", "IRG", "ADDG", "STG", "ST2G", "LDG",
    "BTI", "CSDB", "DMB", "FLUSH", "DC", "NOP", "HALT", "AMO.ADD", "AMO.CAS", "AMO.XOR", ".entry",
    ".data",
];

/// Operand spellings, well-formed and not.
const OPERANDS: &[&str] = &[
    "X0", "X30", "X31", "XZR", "SP", "LR", "#0", "#-1", "#0xFFFF", "#99999999999999999999", "L0",
    "L26", "main", "[X2]", "[X2, #8]", "[X2, X3]", "[X2", "[]", "LSL #16", "CIVAC [X1]", "c", "",
    "0x1000 = 1, 2", "= 300",
];

fn corpus() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sasm"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("corpus program"))
        })
        .collect()
}

fn pick<'a>(rng: &mut Rng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One generated `.sasm` line: a label, an `.entry`, a well-formed
/// instruction or a random mnemonic with random operands. Labels are mostly
/// ones `labels` already binds, so `.entry`, branches and a second binding
/// meet a real one; the well-formed lines let a mutant parse far enough to
/// reach the checks made after the last line.
fn splice_line(rng: &mut Rng, labels: &[String]) -> String {
    let label = if !labels.is_empty() && rng.chance(0.75) {
        labels[rng.below(labels.len() as u64) as usize].clone()
    } else {
        format!("{}{}", pick(rng, &["L", "main", "x", ""]), rng.below(30))
    };
    match rng.below(4) {
        0 => format!("{label}:"),
        1 => format!(".entry {label}"),
        2 => match rng.below(4) {
            0 => format!("B {label}"),
            1 => format!("CBNZ X1, {label}"),
            2 => "NOP".to_owned(),
            _ => "HALT".to_owned(),
        },
        _ => {
            let ops: Vec<&str> = (0..rng.below(5)).map(|_| pick(rng, OPERANDS)).collect();
            format!("{} {}", pick(rng, MNEMONICS), ops.join(", "))
        }
    }
}

/// Duplicates, deletes or swaps lines, or splices in a generated one. Half
/// of the edits land at the end, where a label binds past the last
/// instruction.
fn mutate_lines(lines: &mut Vec<String>, rng: &mut Rng) {
    let labels: Vec<String> =
        lines.iter().filter_map(|l| l.trim().strip_suffix(':')).map(str::to_owned).collect();
    for _ in 0..rng.range(1, 5) {
        let at = if rng.chance(0.5) {
            lines.len().saturating_sub(rng.below(2) as usize)
        } else {
            rng.below(lines.len() as u64 + 1) as usize
        };
        match rng.below(4) {
            0 if at < lines.len() => {
                let line = lines[at].clone();
                lines.insert(at, line);
            }
            1 if at < lines.len() => {
                lines.remove(at);
            }
            2 if !lines.is_empty() => {
                let (last, other) = (lines.len() - 1, rng.below(lines.len() as u64) as usize);
                lines.swap(at.min(last), other);
            }
            _ => lines.insert(at, splice_line(rng, &labels)),
        }
    }
}

fn panics(text: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| parse_program(text))).is_err()
}

/// Keeps the smallest subset of `text`'s lines that still panics the
/// assembler, by delta-debugging over line indices.
fn shrink_lines(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let keep = |dropped: &[usize]| -> String {
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            if !dropped.contains(&i) {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    };
    let dropped = shrink::ddmin_mask(lines.len(), &[], |cand| Some(panics(&keep(cand))));
    keep(&dropped)
}

/// The no-panic contract; a violation is reported as its shrunk input.
fn assert_no_panic(text: &str) {
    if panics(text) {
        panic!("parse_program panicked; shrunk input:\n{:?}", shrink_lines(text));
    }
}

#[test]
fn arbitrary_text_never_panics_the_assembler() {
    check("sasm_arbitrary_text", 512, |rng| {
        let len = rng.below(400) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.chance(0.85) {
                    ALPHABET[rng.below(ALPHABET.len() as u64) as usize]
                } else {
                    gen::u8_any().sample(rng)
                }
            })
            .collect();
        assert_no_panic(&String::from_utf8_lossy(&bytes));
    });
}

#[test]
fn mutated_corpus_programs_never_panic_the_assembler() {
    let corpus = corpus();
    check("sasm_mutated_corpus", 2048, |rng| {
        let (_, text) = &corpus[rng.below(corpus.len() as u64) as usize];
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        mutate_lines(&mut lines, rng);
        assert_no_panic(&lines.join("\n"));
    });
}

#[test]
fn every_corpus_program_round_trips_through_to_sasm() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 28, "the fuzz corpus holds 28 programs");
    // A label bound after the last instruction is a branch target too.
    let trailing_label = ("trailing label".to_string(), "B end\nend:\n".to_string());
    for (name, text) in corpus.iter().chain([&trailing_label]) {
        let program = parse_program(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back = parse_program(&program.to_sasm()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back.fingerprint(), program.fingerprint(), "{name}");
    }
}

/// Crashers `sasm_mutated_corpus` found, as its shrinker reported them,
/// each pinned to the `ParseError` it now returns. Both used to panic in
/// `ProgramBuilder::bind` and `Program::set_entry`.
#[test]
fn shrunk_crashers_are_parse_errors() {
    for (text, line, message) in [
        ("L18:\nL18:\n", 2, "label \"L18\" already bound at line 1"),
        (".entry L21\nL21:\n", 1, ".entry label \"L21\" is past the last instruction"),
    ] {
        let e = parse_program(text).expect_err(text);
        assert_eq!((e.line, e.message.as_str()), (line, message), "{text:?}");
    }
}
