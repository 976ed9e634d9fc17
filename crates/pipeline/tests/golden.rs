//! Golden-model differential testing: random programs are executed both by
//! a simple in-order reference interpreter and by the full out-of-order
//! pipeline (under several mitigation policies); the architectural results
//! must be identical — speculation, squashes, forwarding and policy delays
//! may change *timing*, never *values*.

use sas_isa::{Flags, Inst, Operand, Program, Reg, VirtAddr};
use sas_mem::{MainMemory, MemConfig};
use sas_pipeline::{CoreConfig, MteOnlyPolicy, NoPolicy, RunExit, System};
use sas_ptest::{check, gens};

const MEM_BASE: u64 = gens::PROGRAM_MEM_BASE;

/// Reference interpreter: executes the program in order, one instruction at
/// a time, with exact architectural semantics.
fn interpret(program: &Program, max_steps: usize) -> Option<([u64; 33], Flags, MainMemory)> {
    let mut regs = [0u64; 33];
    let mut flags = Flags::default();
    let mut mem = MainMemory::new();
    for seg in program.data() {
        mem.write_bytes(VirtAddr::new(seg.base()), &seg.to_vec());
    }
    let mut pc = program.entry();
    let r = |regs: &[u64; 33], reg: Reg| if reg.is_zero() { 0 } else { regs[reg.index()] };
    let op = |regs: &[u64; 33], o: Operand| match o {
        Operand::Imm(v) => v,
        Operand::Reg(rr) => r(regs, rr),
    };
    for _ in 0..max_steps {
        let inst = program.fetch(pc)?;
        let mut next = pc + 1;
        match inst {
            Inst::Alu {
                op: o,
                dst,
                lhs,
                rhs,
            } => {
                let v = o.eval(r(&regs, lhs), op(&regs, rhs));
                if !dst.is_zero() {
                    regs[dst.index()] = v;
                }
            }
            Inst::MovZ { dst, imm, shift } => {
                if !dst.is_zero() {
                    regs[dst.index()] = (imm as u64) << (16 * shift);
                }
            }
            Inst::MovK { dst, imm, shift } => {
                if !dst.is_zero() {
                    let m = 0xFFFFu64 << (16 * shift);
                    regs[dst.index()] = (regs[dst.index()] & !m) | ((imm as u64) << (16 * shift));
                }
            }
            Inst::Cmp { lhs, rhs } => flags = Flags::from_cmp(r(&regs, lhs), op(&regs, rhs)),
            Inst::Ldr {
                dst,
                base,
                offset,
                width,
            } => {
                let a = VirtAddr::new(r(&regs, base)).offset(offset);
                let v = mem.read(a, width.bytes());
                if !dst.is_zero() {
                    regs[dst.index()] = v;
                }
            }
            Inst::Str {
                src,
                base,
                offset,
                width,
            } => {
                let a = VirtAddr::new(r(&regs, base)).offset(offset);
                mem.write(a, width.bytes(), r(&regs, src));
            }
            Inst::B { target } => next = target,
            Inst::BCond { cond, target } => {
                if cond.holds(flags) {
                    next = target;
                }
            }
            Inst::Cbz { reg, target } => {
                if r(&regs, reg) == 0 {
                    next = target;
                }
            }
            Inst::Cbnz { reg, target } => {
                if r(&regs, reg) != 0 {
                    next = target;
                }
            }
            Inst::Nop => {}
            Inst::Halt => return Some((regs, flags, mem)),
            other => unreachable!("generator does not emit {other}"),
        }
        pc = next;
    }
    None // did not halt within budget
}

#[test]
fn pipeline_matches_reference_interpreter() {
    check("pipeline_matches_reference_interpreter", 96, |rng| {
        let program = gens::terminating_program(8..40).sample(rng);
        let (ref_regs, _, ref_mem) =
            interpret(&program, 10_000).expect("forward-only branches always halt");
        for policy in [0, 1] {
            let boxed: Box<dyn sas_pipeline::MitigationPolicy> = match policy {
                0 => Box::new(NoPolicy),
                _ => Box::new(MteOnlyPolicy),
            };
            let mut sys = System::single_core(
                CoreConfig::table2(),
                MemConfig::default(),
                program.clone(),
                boxed,
            );
            let r = sys.run(5_000_000);
            assert_eq!(r.exit, RunExit::Halted, "pipeline must halt cleanly");
            for n in 0..8u8 {
                assert_eq!(
                    sys.core(0).reg(Reg::x(n)),
                    ref_regs[Reg::x(n).index()],
                    "X{n} diverged (policy {policy})"
                );
            }
            // Architectural memory agrees over the scratch window.
            for slot in 0..0x40 {
                let a = VirtAddr::new(MEM_BASE + slot * 8);
                assert_eq!(
                    sys.mem().read_arch(a, 8),
                    ref_mem.read(a, 8),
                    "mem[{:#x}] diverged",
                    a.raw()
                );
            }
        }
    });
}
