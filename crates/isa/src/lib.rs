//! # SAS-IR: the instruction set of the SpecASan simulator
//!
//! This crate defines a compact, AArch64-flavoured instruction set with
//! ARM-MTE-style tagged 64-bit pointers. It is the lingua franca of the whole
//! reproduction: attack proof-of-concepts (`sas-attacks`), synthetic
//! workloads (`sas-workloads`) and the out-of-order pipeline
//! (`sas-pipeline`) all speak SAS-IR.
//!
//! The ISA deliberately mirrors the subset of AArch64 + MTE that the paper's
//! gem5 model exercises:
//!
//! * 31 general-purpose registers `X0..X30`, plus `XZR`, `SP` and flags,
//! * loads/stores of 1/2/4/8 bytes through tagged pointers,
//! * the MTE tag-management instructions `IRG`, `ADDG`, `SUBG`, `STG`,
//!   `ST2G`, `LDG`,
//! * conditional/unconditional/indirect branches, calls and returns,
//! * `BTI` landing pads (used by the SpecCFI integration),
//! * a speculation barrier (`CSDB`-like) used by the fence baseline,
//! * a tiny set of atomics so multi-threaded PARSEC-style workloads can
//!   synchronise.
//!
//! Programs are built with [`ProgramBuilder`], which resolves symbolic labels
//! to instruction indices. The program counter is an instruction index; there
//! is no variable-length encoding (the paper's evaluation never depends on
//! fetch alignment).
//!
//! ```
//! use sas_isa::{ProgramBuilder, Reg, Operand};
//!
//! let mut asm = ProgramBuilder::new();
//! asm.movz(Reg::X0, 40, 0);
//! asm.add(Reg::X0, Reg::X0, Operand::imm(2));
//! asm.halt();
//! let program = asm.build().expect("labels resolve");
//! assert_eq!(program.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod inst;
pub mod parse;
pub mod program;
pub mod reg;
pub mod rng;
pub mod segment;

pub use addr::{TagNibble, VirtAddr, GRANULE_BYTES, LINE_BYTES};
pub use inst::{AluOp, AmoOp, BtiKind, Cond, Inst, MemWidth, Operand};
pub use parse::{parse_program, ParseError, MAX_DATA_PAGES};
pub use program::{AsmError, Label, Program, ProgramBuilder};
pub use reg::{Flags, Reg};
pub use rng::SplitMix64;
pub use segment::{DataSegment, Page, PageBytes, PAGE_BYTES, PAGE_SHIFT};
