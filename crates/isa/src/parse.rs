//! A text assembler for SAS-IR.
//!
//! Lets proof-of-concepts and experiments be written as plain assembly text
//! instead of builder calls:
//!
//! ```
//! use sas_isa::parse_program;
//!
//! let program = parse_program(r#"
//!     .entry main
//! main:
//!     MOVZ X0, #10
//! loop:
//!     ADD  X1, X1, X0
//!     SUB  X0, X0, #1
//!     CBNZ X0, loop
//!     HALT
//! "#).unwrap();
//! assert_eq!(program.len(), 5);
//! assert_eq!(program.label("loop"), Some(1));
//! ```
//!
//! The grammar mirrors the crate's `Display` output: one instruction per
//! line, `;` or `//` comments, `label:` definitions, and two directives —
//! `.entry <label>` and `.data <addr> = <byte>, <byte>, …`.

use crate::addr::VirtAddr;
use crate::inst::{AluOp, AmoOp, BtiKind, Cond, Inst, MemWidth, Operand};
use crate::program::{Program, ProgramBuilder};
use crate::reg::Reg;
use crate::segment::{PAGE_BYTES, PAGE_SHIFT};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The most distinct 4 KiB pages a parsed program's `.data` may touch:
/// 16 MiB, as much as the largest four-core workload holds across its
/// cores. A machine holds a page for each, so without a bound 4 MiB of
/// one-byte lines a page apart would cost close to a gigabyte to load.
pub const MAX_DATA_PAGES: usize = 4096;

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    let t = tok.trim().to_ascii_uppercase();
    match t.as_str() {
        "XZR" => return Ok(Reg::XZR),
        "SP" => return Ok(Reg::SP),
        "LR" => return Ok(Reg::LR),
        _ => {}
    }
    if let Some(n) = t.strip_prefix('X') {
        if let Ok(n) = n.parse::<u8>() {
            if n <= 30 {
                return Ok(Reg::x(n));
            }
        }
    }
    err(line, format!("expected a register, got {tok:?}"))
}

fn parse_imm(tok: &str, line: usize) -> Result<i64, ParseError> {
    let t = tok.trim().trim_start_matches('#');
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        t.parse::<i64>()
    };
    match v {
        Ok(v) => Ok(if neg { -v } else { v }),
        Err(_) => err(line, format!("expected an immediate, got {tok:?}")),
    }
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand, ParseError> {
    let t = tok.trim();
    if t.starts_with('#')
        || t.starts_with("0x")
        || t.chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() || c == '-')
    {
        Ok(Operand::Imm(parse_imm(t, line)? as u64))
    } else {
        Ok(Operand::Reg(parse_reg(t, line)?))
    }
}

/// `[Xn]` / `[Xn, #off]` / `[Xn, Xm]`
enum MemRef {
    Offset(Reg, i64),
    Indexed(Reg, Reg),
}

fn parse_memref(tok: &str, line: usize) -> Result<MemRef, ParseError> {
    let t = tok.trim();
    let inner = t
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected [base, off], got {tok:?}"),
        })?;
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    match parts.as_slice() {
        [b] => Ok(MemRef::Offset(parse_reg(b, line)?, 0)),
        [b, second] => {
            let base = parse_reg(b, line)?;
            if second.starts_with('#')
                || second.starts_with("0x")
                || second
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-')
            {
                Ok(MemRef::Offset(base, parse_imm(second, line)?))
            } else {
                Ok(MemRef::Indexed(base, parse_reg(second, line)?))
            }
        }
        _ => err(line, format!("malformed memory operand {tok:?}")),
    }
}

fn parse_cond(s: &str, line: usize) -> Result<Cond, ParseError> {
    Ok(match s.to_ascii_uppercase().as_str() {
        "EQ" => Cond::Eq,
        "NE" => Cond::Ne,
        "LO" => Cond::Lo,
        "LS" => Cond::Ls,
        "HI" => Cond::Hi,
        "HS" => Cond::Hs,
        "LT" => Cond::Lt,
        "LE" => Cond::Le,
        "GT" => Cond::Gt,
        "GE" => Cond::Ge,
        other => return err(line, format!("unknown condition {other:?}")),
    })
}

fn alu_of(mnemonic: &str) -> Option<AluOp> {
    Some(match mnemonic {
        "ADD" => AluOp::Add,
        "SUB" => AluOp::Sub,
        "AND" => AluOp::And,
        "ORR" => AluOp::Orr,
        "EOR" => AluOp::Eor,
        "LSL" => AluOp::Lsl,
        "LSR" => AluOp::Lsr,
        "ASR" => AluOp::Asr,
        "MUL" => AluOp::Mul,
        "UDIV" => AluOp::UDiv,
        "SDIV" => AluOp::SDiv,
        _ => return None,
    })
}

fn width_of(mnemonic: &str) -> (String, MemWidth) {
    for (suffix, w) in [
        ("B", MemWidth::B1),
        ("H", MemWidth::B2),
        ("W", MemWidth::B4),
    ] {
        if let Some(root) = mnemonic.strip_suffix(suffix) {
            if root == "LDR" || root == "STR" {
                return (root.to_owned(), w);
            }
        }
    }
    (mnemonic.to_owned(), MemWidth::B8)
}

/// Splits off operands, respecting brackets: `A, [B, #1], C` →
/// `["A", "[B, #1]", "C"]`.
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '[' => {
                depth += 1;
                cur.push(c);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_owned());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_owned());
    }
    out
}

/// Parses a whole program.
///
/// # Errors
///
/// Returns the first syntax error with its line number. A label bound a
/// second time is an error at that binding's line, a branch to a label that
/// is never bound is an error at the first line naming it, and an `.entry`
/// label that is unknown or at the end of the program is an error at the
/// `.entry` line. Data touching more than [`MAX_DATA_PAGES`] pages is an
/// error at the `.data` line that crosses the bound.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    let mut asm = ProgramBuilder::new();
    let mut data_pages: HashSet<u64> = HashSet::new();
    let mut entry_label: Option<(String, usize)> = None;
    // Label name -> the line that bound it, and the first line that named
    // each branch target, so label mistakes surface as `ParseError`s
    // before they reach the builder's misuse asserts.
    let mut bound: HashMap<String, usize> = HashMap::new();
    let mut referenced: HashMap<String, usize> = HashMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split(';').next().unwrap_or("");
        let line = line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = line.strip_prefix(".entry") {
            entry_label = Some((rest.trim().to_owned(), lineno));
            continue;
        }
        if let Some(rest) = line.strip_prefix(".data") {
            let Some((addr, bytes)) = rest.split_once('=') else {
                return err(lineno, ".data needs the form `.data <addr> = b, b, …`");
            };
            let base = parse_imm(addr, lineno)? as u64;
            let mut data = Vec::new();
            for b in bytes.split(',') {
                let v = parse_imm(b, lineno)?;
                if !(0..=255).contains(&v) {
                    return err(lineno, format!("data byte {v} out of range"));
                }
                data.push(v as u8);
            }
            let mut at = 0;
            while at < data.len() {
                let addr = VirtAddr::new(base.wrapping_add(at as u64)).untagged().raw();
                data_pages.insert(addr >> PAGE_SHIFT);
                at += PAGE_BYTES - (addr as usize & (PAGE_BYTES - 1));
            }
            if data_pages.len() > MAX_DATA_PAGES {
                return err(
                    lineno,
                    format!(
                        "data touches {} pages, more than the {MAX_DATA_PAGES} a program may hold",
                        data_pages.len()
                    ),
                );
            }
            asm.data_segment(base, data);
            continue;
        }

        // Labels (possibly followed by an instruction on the same line).
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            let (name, after) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                break;
            }
            if let Some(first) = bound.insert(name.to_owned(), lineno) {
                return err(
                    lineno,
                    format!("label {name:?} already bound at line {first}"),
                );
            }
            let l = asm.named_label(name);
            asm.bind(l);
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        // Mnemonic.
        let (mnemonic, operands) = match rest.find(char::is_whitespace) {
            Some(sp) => (&rest[..sp], rest[sp..].trim()),
            None => (rest, ""),
        };
        let m = mnemonic.to_ascii_uppercase();
        let ops = split_operands(operands);
        let nops = ops.len();
        let need = |n: usize| -> Result<(), ParseError> {
            if nops == n {
                Ok(())
            } else {
                err(lineno, format!("{m} takes {n} operands, got {nops}"))
            }
        };
        let mut target = |asm: &mut ProgramBuilder, name: &str| {
            referenced.entry(name.to_owned()).or_insert(lineno);
            asm.named_label(name)
        };

        // Branch with condition suffix: B.EQ etc.
        if let Some(cond) = m.strip_prefix("B.") {
            need(1)?;
            let cond = parse_cond(cond, lineno)?;
            let l = target(&mut asm, &ops[0]);
            asm.b_cond(cond, l);
            continue;
        }
        if let Some(op) = alu_of(&m) {
            need(3)?;
            let dst = parse_reg(&ops[0], lineno)?;
            let lhs = parse_reg(&ops[1], lineno)?;
            let rhs = parse_operand(&ops[2], lineno)?;
            asm.push(Inst::Alu { op, dst, lhs, rhs });
            continue;
        }
        match m.as_str() {
            "MOVZ" | "MOVK" => {
                if nops != 2 && nops != 3 {
                    return err(lineno, format!("{m} takes 2 or 3 operands"));
                }
                let dst = parse_reg(&ops[0], lineno)?;
                let imm = parse_imm(&ops[1], lineno)? as u16;
                let shift = if nops == 3 {
                    let s = ops[2].to_ascii_uppercase();
                    let s = s.strip_prefix("LSL").map(str::trim).unwrap_or(&s);
                    (parse_imm(s, lineno)? / 16) as u8
                } else {
                    0
                };
                asm.push(if m == "MOVZ" {
                    Inst::MovZ { dst, imm, shift }
                } else {
                    Inst::MovK { dst, imm, shift }
                });
            }
            "MOV" => {
                need(2)?;
                let dst = parse_reg(&ops[0], lineno)?;
                match parse_operand(&ops[1], lineno)? {
                    Operand::Reg(src) => {
                        asm.mov(dst, src);
                    }
                    Operand::Imm(v) => {
                        asm.mov_imm64(dst, v);
                    }
                }
            }
            "CMP" => {
                need(2)?;
                let lhs = parse_reg(&ops[0], lineno)?;
                let rhs = parse_operand(&ops[1], lineno)?;
                asm.push(Inst::Cmp { lhs, rhs });
            }
            "LDR" | "LDRB" | "LDRH" | "LDRW" => {
                need(2)?;
                let (_, width) = width_of(&m);
                let dst = parse_reg(&ops[0], lineno)?;
                match parse_memref(&ops[1], lineno)? {
                    MemRef::Offset(base, offset) => {
                        asm.push(Inst::Ldr {
                            dst,
                            base,
                            offset,
                            width,
                        });
                    }
                    MemRef::Indexed(base, index) => {
                        asm.push(Inst::LdrIdx {
                            dst,
                            base,
                            index,
                            width,
                        });
                    }
                }
            }
            "STR" | "STRB" | "STRH" | "STRW" => {
                need(2)?;
                let (_, width) = width_of(&m);
                let src = parse_reg(&ops[0], lineno)?;
                match parse_memref(&ops[1], lineno)? {
                    MemRef::Offset(base, offset) => {
                        asm.push(Inst::Str {
                            src,
                            base,
                            offset,
                            width,
                        });
                    }
                    MemRef::Indexed(base, index) => {
                        asm.push(Inst::StrIdx {
                            src,
                            base,
                            index,
                            width,
                        });
                    }
                }
            }
            "IRG" => {
                need(2)?;
                asm.irg(parse_reg(&ops[0], lineno)?, parse_reg(&ops[1], lineno)?);
            }
            "ADDG" | "SUBG" => {
                need(4)?;
                let dst = parse_reg(&ops[0], lineno)?;
                let src = parse_reg(&ops[1], lineno)?;
                let offset = parse_imm(&ops[2], lineno)? as u64;
                let tag_offset = parse_imm(&ops[3], lineno)? as u8;
                asm.push(if m == "ADDG" {
                    Inst::Addg {
                        dst,
                        src,
                        offset,
                        tag_offset,
                    }
                } else {
                    Inst::Subg {
                        dst,
                        src,
                        offset,
                        tag_offset,
                    }
                });
            }
            "STG" | "ST2G" => {
                need(1)?;
                match parse_memref(&ops[0], lineno)? {
                    MemRef::Offset(base, offset) => {
                        asm.push(if m == "STG" {
                            Inst::Stg { base, offset }
                        } else {
                            Inst::St2g { base, offset }
                        });
                    }
                    MemRef::Indexed(..) => return err(lineno, "STG takes [base, #offset]"),
                }
            }
            "LDG" => {
                need(2)?;
                let dst = parse_reg(&ops[0], lineno)?;
                match parse_memref(&ops[1], lineno)? {
                    MemRef::Offset(base, 0) => {
                        asm.push(Inst::Ldg { dst, base });
                    }
                    _ => return err(lineno, "LDG takes [base]"),
                }
            }
            "B" => {
                need(1)?;
                let l = target(&mut asm, &ops[0]);
                asm.b(l);
            }
            "CBZ" | "CBNZ" => {
                need(2)?;
                let reg = parse_reg(&ops[0], lineno)?;
                let l = target(&mut asm, &ops[1]);
                if m == "CBZ" {
                    asm.cbz(reg, l);
                } else {
                    asm.cbnz(reg, l);
                }
            }
            "BL" => {
                need(1)?;
                let l = target(&mut asm, &ops[0]);
                asm.bl(l);
            }
            "BR" => {
                need(1)?;
                asm.br(parse_reg(&ops[0], lineno)?);
            }
            "BLR" => {
                need(1)?;
                asm.blr(parse_reg(&ops[0], lineno)?);
            }
            "RET" => {
                need(0)?;
                asm.ret();
            }
            "BTI" => {
                let kind = match ops.first().map(|s| s.to_ascii_lowercase()).as_deref() {
                    None | Some("jc") => BtiKind::JumpCall,
                    Some("c") => BtiKind::Call,
                    Some("j") => BtiKind::Jump,
                    Some(other) => return err(lineno, format!("unknown BTI kind {other:?}")),
                };
                asm.bti(kind);
            }
            "CSDB" => {
                need(0)?;
                asm.spec_barrier();
            }
            "DMB" | "DSB" => {
                need(0)?;
                asm.fence();
            }
            "FLUSH" | "CIVAC" => {
                need(1)?;
                match parse_memref(&ops[0], lineno)? {
                    MemRef::Offset(base, offset) => {
                        asm.flush(base, offset);
                    }
                    MemRef::Indexed(..) => return err(lineno, "FLUSH takes [base, #offset]"),
                }
            }
            "DC" => {
                // `DC CIVAC [X1, #0]`
                if ops.first().map(|s| s.to_ascii_uppercase()) != Some("CIVAC [".into())
                    && !operands.to_ascii_uppercase().starts_with("CIVAC")
                {
                    return err(lineno, "only `DC CIVAC [base, #off]` is supported");
                }
                let mem = operands.trim_start_matches(|c: char| c != '[');
                match parse_memref(mem, lineno)? {
                    MemRef::Offset(base, offset) => {
                        asm.flush(base, offset);
                    }
                    MemRef::Indexed(..) => return err(lineno, "DC CIVAC takes [base, #offset]"),
                }
            }
            "NOP" => {
                need(0)?;
                asm.nop();
            }
            "HALT" => {
                need(0)?;
                asm.halt();
            }
            _ if m.starts_with("AMO.") => {
                let op = match &m[4..] {
                    "ADD" => AmoOp::Add,
                    "SWAP" => AmoOp::Swap,
                    "CAS" => AmoOp::Cas,
                    other => return err(lineno, format!("unknown atomic {other:?}")),
                };
                let want = if op == AmoOp::Cas { 4 } else { 3 };
                need(want)?;
                let dst = parse_reg(&ops[0], lineno)?;
                let addr = match parse_memref(&ops[1], lineno)? {
                    MemRef::Offset(base, 0) => base,
                    _ => return err(lineno, "AMO takes [base]"),
                };
                let src = parse_reg(&ops[2], lineno)?;
                let expected = if op == AmoOp::Cas {
                    parse_reg(&ops[3], lineno)?
                } else {
                    Reg::XZR
                };
                asm.amo(op, dst, addr, src, expected);
            }
            other => return err(lineno, format!("unknown mnemonic {other:?}")),
        }
    }

    let unresolved = referenced
        .into_iter()
        .filter(|(name, _)| !bound.contains_key(name));
    if let Some((name, lineno)) = unresolved.min_by_key(|&(_, lineno)| lineno) {
        return err(lineno, format!("unresolved label {name:?}"));
    }
    let mut program = asm.build().map_err(|e| ParseError {
        line: 0,
        message: format!("unresolved label: {e}"),
    })?;
    if let Some((name, lineno)) = entry_label {
        let Some(idx) = program.label(&name) else {
            return err(lineno, format!(".entry names unknown label {name:?}"));
        };
        if idx >= program.len() {
            return err(
                lineno,
                format!(".entry label {name:?} is past the last instruction"),
            );
        }
        program.set_entry(idx);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_instruction_class() {
        let p = parse_program(
            r#"
            ; a comment
            start:
                MOVZ X0, #5           // another comment
                MOVK X0, #1, LSL #16
                MOV  X1, X0
                MOV  X2, #0x1234
                ADD  X3, X1, #7
                MUL  X4, X3, X1
                CMP  X3, X4
                B.NE start
                LDR  X5, [X2]
                LDRB X6, [X2, #3]
                STR  X5, [X2, X3]
                IRG  X7, X2
                ADDG X8, X7, #16, #1
                STG  [X7]
                LDG  X9, [X2]
                FLUSH [X2, #0]
                CSDB
                DMB
                AMO.ADD X10, [X2], X3
                AMO.CAS X11, [X2], X3, X4
                BTI  c
                CBZ  X0, done
                BL   start
                RET
            done:
                HALT
            "#,
        )
        .unwrap();
        assert!(p.len() >= 24);
        assert_eq!(p.label("start"), Some(0));
        assert!(p.fetch(p.label("done").unwrap()).unwrap() == Inst::Halt);
    }

    #[test]
    fn data_may_touch_at_most_max_data_pages() {
        let lines = |pages: u64| -> String {
            let mut text = String::from("HALT\n");
            for i in 0..pages {
                // A tagged address names the same page as its untagged one.
                text.push_str(&format!(".data {:#x} = 1\n", (0xA << 56) | (i << 12)));
                text.push_str(&format!(".data {:#x} = 2, 3\n", (i << 12) + 8));
            }
            text
        };
        let p = parse_program(&lines(MAX_DATA_PAGES as u64)).unwrap();
        assert_eq!(p.data().len(), 2 * MAX_DATA_PAGES);
        let e = parse_program(&lines(MAX_DATA_PAGES as u64 + 1)).unwrap_err();
        assert_eq!(e.line, 2 + 2 * MAX_DATA_PAGES);
        assert_eq!(
            e.message,
            "data touches 4097 pages, more than the 4096 a program may hold"
        );
        // One line straddling two pages counts both.
        let e = parse_program(&format!("HALT\n{}.data 0x10000fff = 1, 2\n", {
            let mut t = String::new();
            for i in 0..MAX_DATA_PAGES as u64 - 1 {
                t.push_str(&format!(".data {:#x} = 0\n", i << 12));
            }
            t
        }))
        .unwrap_err();
        assert_eq!(e.line, 1 + MAX_DATA_PAGES);
    }

    #[test]
    fn entry_and_data_directives() {
        let p = parse_program(
            r#"
            .data 0x1000 = 1, 2, 0xFF
            .entry main
            helper:
                RET
            main:
                NOP
                HALT
            "#,
        )
        .unwrap();
        assert_eq!(p.entry(), p.label("main").unwrap());
        assert_eq!(p.data().len(), 1);
        assert_eq!(p.data()[0].to_vec(), vec![1, 2, 0xFF]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_program("NOP\nBOGUS X1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("BOGUS"));

        let e = parse_program("ADD X1, X2\n").unwrap_err();
        assert!(e.message.contains("3 operands"));

        let e = parse_program("LDR X1, [X99]\n").unwrap_err();
        assert!(e.message.contains("register"));
    }

    #[test]
    fn unresolved_label_is_reported() {
        let e = parse_program("B nowhere\nHALT\n").unwrap_err();
        assert!(e.message.contains("unresolved"));
        // Named, at the first line that uses it.
        let e = parse_program("NOP\nB top\nB top\n").unwrap_err();
        assert_eq!(e.to_string(), "line 2: unresolved label \"top\"");
    }

    #[test]
    fn a_label_bound_twice_is_an_error_at_the_second_binding() {
        let e = parse_program("a:\na:\nHALT\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("\"a\" already bound at line 1"), "{e}");
    }

    #[test]
    fn an_entry_label_past_the_last_instruction_is_an_error_at_the_directive() {
        let e = parse_program(".entry main\nHALT\nmain:\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("past the last instruction"), "{e}");
    }

    #[test]
    fn parsed_program_executes_like_builder_program() {
        let text = parse_program(
            r#"
                MOVZ X0, #10
            loop:
                ADD X1, X1, X0
                SUB X0, X0, #1
                CBNZ X0, loop
                HALT
            "#,
        )
        .unwrap();
        let mut asm = ProgramBuilder::new();
        asm.movz(Reg::X0, 10, 0);
        let l = asm.named_label("loop");
        asm.bind(l);
        asm.add(Reg::X1, Reg::X1, Operand::reg(Reg::X0));
        asm.sub(Reg::X0, Reg::X0, Operand::imm(1));
        asm.cbnz(Reg::X0, l);
        asm.halt();
        let built = asm.build().unwrap();
        assert_eq!(text.insts(), built.insts());
    }

    #[test]
    fn negative_and_hex_immediates() {
        let p = parse_program("LDR X1, [X2, #-8]\nADD X3, X4, #0xFF\nHALT\n").unwrap();
        assert_eq!(
            p.fetch(0),
            Some(Inst::Ldr {
                dst: Reg::X1,
                base: Reg::X2,
                offset: -8,
                width: MemWidth::B8
            })
        );
        assert_eq!(
            p.fetch(1),
            Some(Inst::Alu {
                op: AluOp::Add,
                dst: Reg::X3,
                lhs: Reg::X4,
                rhs: Operand::Imm(0xFF)
            })
        );
    }

    #[test]
    fn to_sasm_round_trips_through_the_parser() {
        let original = parse_program(
            r#"
            .data 0x4000 = 7, 9, 0xFF
            .entry main
            helper:
                BTI  c
                AMO.CAS X11, [X2], X3, X4
                RET
            main:
                MOVZ X0, #5
            top:
                SUB  X0, X0, #1
                LDR  X5, [X2, #-8]
                CBNZ X0, top
                B.EQ top
                BL   helper
                CSDB
                HALT
            "#,
        )
        .unwrap();
        let text = original.to_sasm();
        let back = parse_program(&text).unwrap();
        assert_eq!(original.insts(), back.insts(), "{text}");
        assert_eq!(original.entry(), back.entry());
        let flat = |p: &Program| {
            let mut v: Vec<(u64, u8)> = p
                .data()
                .iter()
                .flat_map(|s| {
                    s.to_vec()
                        .into_iter()
                        .enumerate()
                        .map(move |(i, b)| (s.base() + i as u64, b))
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(flat(&original), flat(&back));
    }

    #[test]
    fn with_nops_preserves_branch_targets() {
        let p = parse_program("MOVZ X0, #2\ntop: SUB X0, X0, #1\nCBNZ X0, top\nHALT\n").unwrap();
        let q = p.with_nops(&[0, 99]);
        assert_eq!(q.fetch(0), Some(Inst::Nop));
        assert_eq!(q.fetch(2), p.fetch(2), "branch target untouched");
        assert_eq!(q.len(), p.len());
    }

    #[test]
    fn label_and_instruction_on_one_line() {
        let p = parse_program("top: NOP\nB top\nHALT\n").unwrap();
        assert_eq!(p.label("top"), Some(0));
        assert_eq!(p.fetch(1), Some(Inst::B { target: 0 }));
    }
}
