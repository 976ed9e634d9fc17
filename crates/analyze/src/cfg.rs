//! Control-flow graph over a SAS-IR program: basic blocks, successor and
//! predecessor edges, reverse postorder, and immediate dominators.
//!
//! Indirect branches (`BR`/`BLR`/`RET`) have no static successors here —
//! a deliberate under-approximation: code only reachable through them is
//! covered separately by the taint pass's BTB/RSB window scan (the
//! predictor is tagless, so a mispredicted indirect can land anywhere).

use sas_isa::{Inst, Program};

/// Static architectural successors of the instruction at `pc`. Targets
/// outside the program are dropped (dead edges, not panics).
pub fn static_succs(inst: Inst, pc: usize, len: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(2);
    match inst {
        Inst::B { target } | Inst::Bl { target } => out.push(target),
        Inst::BCond { target, .. } | Inst::Cbz { target, .. } | Inst::Cbnz { target, .. } => {
            out.push(target);
            out.push(pc + 1);
        }
        // An indirect call architecturally resumes at the return site.
        Inst::Blr { .. } => out.push(pc + 1),
        Inst::Br { .. } | Inst::Ret | Inst::Halt => {}
        _ => out.push(pc + 1),
    }
    out.retain(|&t| t < len);
    out.sort_unstable();
    out.dedup();
    out
}

/// A basic block: a maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct Block {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
}

/// The control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks, ordered by start address.
    pub blocks: Vec<Block>,
    /// Block-level successor edges.
    pub succs: Vec<Vec<usize>>,
    /// Block-level predecessor edges.
    pub preds: Vec<Vec<usize>>,
    /// Reverse postorder over blocks reachable from entry.
    pub rpo: Vec<usize>,
    /// Immediate dominator per block (`idom[entry] == entry`; unreachable
    /// blocks map to `usize::MAX`).
    pub idom: Vec<usize>,
    block_of: Vec<usize>,
    entry_block: usize,
}

impl Cfg {
    /// Builds blocks, edges, RPO and dominators for `program`.
    pub fn build(program: &Program) -> Cfg {
        let len = program.len();
        if len == 0 {
            return Cfg {
                blocks: Vec::new(),
                succs: Vec::new(),
                preds: Vec::new(),
                rpo: Vec::new(),
                idom: Vec::new(),
                block_of: Vec::new(),
                entry_block: 0,
            };
        }
        // Leaders: entry, every branch target, every post-terminator slot.
        let mut leader = vec![false; len];
        leader[program.entry().min(len - 1)] = true;
        leader[0] = true;
        for pc in 0..len {
            let inst = program.fetch(pc).expect("in range");
            if inst.is_branch() || matches!(inst, Inst::Halt) {
                if pc + 1 < len {
                    leader[pc + 1] = true;
                }
                for t in static_succs(inst, pc, len) {
                    leader[t] = true;
                }
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; len];
        for pc in 0..len {
            if leader[pc] {
                blocks.push(Block { start: pc, end: pc + 1 });
            }
            let b = blocks.len() - 1;
            blocks[b].end = pc + 1;
            block_of[pc] = b;
        }
        let nb = blocks.len();
        let mut succs = vec![Vec::new(); nb];
        let mut preds = vec![Vec::new(); nb];
        for (b, blk) in blocks.iter().enumerate() {
            let last = blk.end - 1;
            let inst = program.fetch(last).expect("in range");
            for t in static_succs(inst, last, len) {
                let tb = block_of[t];
                if !succs[b].contains(&tb) {
                    succs[b].push(tb);
                    preds[tb].push(b);
                }
            }
        }
        let entry_block = block_of[program.entry().min(len - 1)];
        // Iterative DFS postorder from the entry block.
        let mut post = Vec::new();
        let mut state = vec![0u8; nb]; // 0 unvisited, 1 on stack, 2 done
        let mut stack = vec![(entry_block, 0usize)];
        state[entry_block] = 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b].len() {
                let s = succs[b][*i];
                *i += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b] = 2;
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<usize> = post.iter().rev().copied().collect();
        let mut rpo_index = vec![usize::MAX; nb];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = i;
        }
        // Cooper–Harvey–Kennedy iterative dominators.
        let mut idom = vec![usize::MAX; nb];
        idom[entry_block] = entry_block;
        let intersect = |idom: &[usize], rpo_index: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_index[a] > rpo_index[b] {
                    a = idom[a];
                }
                while rpo_index[b] > rpo_index[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new = usize::MAX;
                for &p in &preds[b] {
                    if idom[p] == usize::MAX {
                        continue;
                    }
                    new = if new == usize::MAX {
                        p
                    } else {
                        intersect(&idom, &rpo_index, new, p)
                    };
                }
                if new != usize::MAX && idom[b] != new {
                    idom[b] = new;
                    changed = true;
                }
            }
        }
        Cfg { blocks, succs, preds, rpo, idom, block_of, entry_block }
    }

    /// The block containing instruction `pc`.
    pub fn block_of(&self, pc: usize) -> Option<usize> {
        self.block_of.get(pc).copied()
    }

    /// Whether block `a` dominates block `b` (both must be reachable).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry_block || self.idom.get(cur).copied() == Some(usize::MAX) {
                return cur == a;
            }
            let next = self.idom[cur];
            if next == cur {
                return cur == a;
            }
            cur = next;
        }
    }

    /// The nearest conditional branch that dominates `pc` — the likely
    /// opener of the speculative window a finding at `pc` sits in. Used
    /// only for diagnostics.
    pub fn guard_of(&self, program: &Program, pc: usize) -> Option<usize> {
        let mut b = self.block_of(pc)?;
        if self.idom.get(b).copied() == Some(usize::MAX) {
            return None;
        }
        loop {
            let last = self.blocks[b].end - 1;
            if (last < pc || self.block_of(pc) != Some(b))
                && matches!(
                    program.fetch(last),
                    Some(Inst::BCond { .. } | Inst::Cbz { .. } | Inst::Cbnz { .. })
                )
            {
                return Some(last);
            }
            if b == self.entry_block || self.idom[b] == b {
                return None;
            }
            b = self.idom[b];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_isa::{Cond, Operand, ProgramBuilder, Reg};

    fn diamond() -> Program {
        // 0: cmp; 1: b.eq 4; 2: nop; 3: b 5; 4: nop; 5: halt
        let mut asm = ProgramBuilder::new();
        asm.cmp(Reg::X0, Operand::imm(0));
        asm.b_cond_idx(Cond::Eq, 4);
        asm.nop();
        asm.b_idx(5);
        asm.nop();
        asm.halt();
        asm.build().unwrap()
    }

    #[test]
    fn diamond_blocks_and_dominators() {
        let p = diamond();
        let cfg = Cfg::build(&p);
        let head = cfg.block_of(0).unwrap();
        let join = cfg.block_of(5).unwrap();
        let left = cfg.block_of(2).unwrap();
        let right = cfg.block_of(4).unwrap();
        assert!(cfg.dominates(head, join));
        assert!(cfg.dominates(head, left));
        assert!(!cfg.dominates(left, join));
        assert!(!cfg.dominates(right, join));
        assert_eq!(cfg.idom[join], head);
    }

    #[test]
    fn guard_of_names_the_branch() {
        let p = diamond();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.guard_of(&p, 2), Some(1));
        assert_eq!(cfg.guard_of(&p, 4), Some(1));
    }

    #[test]
    fn indirect_branches_have_no_static_successors() {
        let mut asm = ProgramBuilder::new();
        asm.br(Reg::X1);
        asm.halt();
        let p = asm.build().unwrap();
        assert!(static_succs(p.fetch(0).unwrap(), 0, p.len()).is_empty());
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks.len(), 2);
    }
}
