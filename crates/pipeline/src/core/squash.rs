//! Squash: drops the ROB tail younger than a sequence number and
//! redirects fetch.

use super::{truncate_sorted, Core, UopState};
use sas_mem::{FillMode, MemSystem};

impl Core {
    /// Squashes every micro-op younger than `after_seq` and redirects fetch
    /// to `redirect_pc` from cycle `resume_at`. With `mem`, the squashed
    /// loads' ghost fills are dropped (GhostMinion's rollback): writeback
    /// passes it for mispredicts; order-violation and false-forward replays
    /// pass `None` and leave their ghost lines to be promoted or evicted.
    pub(super) fn squash_after(
        &mut self,
        after_seq: u64,
        redirect_pc: usize,
        resume_at: u64,
        mem: Option<&mut MemSystem>,
    ) {
        let split = self.rob.partition_point(|u| u.seq <= after_seq);
        let removed = (self.rob.len() - split) as u64;
        if let Some(mem) = mem {
            for u in self.rob.range(split..) {
                if u.fill_mode_used == Some(FillMode::Ghost) {
                    if let Some(a) = u.addr {
                        mem.drop_ghost_line(self.id, a);
                    }
                }
            }
        }
        self.stats.squashed += removed;
        if removed > 0 || self.fetch_pc != Some(redirect_pc) {
            self.stats.squash_events += 1;
        }
        // Redirect + refill: the front end cannot feed dispatch again before
        // `resume_at + front_end_delay`; zero-commit cycles until then are
        // attributed to mispredict recovery.
        self.recover_until = self.recover_until.max(resume_at + self.cfg.front_end_delay);
        if let Some(t) = self.telemetry.as_mut() {
            t.squash_size.observe(removed);
            for u in self.rob.range(split..) {
                t.timeline.on_squash(u.seq, resume_at);
            }
        }
        // Drop the squashed tail and every scheduler-index entry that
        // referenced it. Waiter chains of removed producers are freed
        // without waking anybody: every registered consumer is younger than
        // its producer, so it dies in this squash too. Completion-heap
        // entries for removed seqs go stale and are filtered at pop time.
        for i in split..self.rob.len() {
            if matches!(self.rob[i].state, UopState::Waiting) {
                self.waiting_count -= 1;
            }
            let mut link = self.rob[i].waiter_head.take();
            while let Some(r) = link {
                link = self.waiters.remove(r).and_then(|n| n.next);
            }
        }
        self.rob.truncate(split);
        truncate_sorted(&mut self.ready, after_seq);
        truncate_sorted(&mut self.unresolved_branches, after_seq);
        truncate_sorted(&mut self.unknown_stores, after_seq);
        truncate_sorted(&mut self.pending_mem, after_seq);
        truncate_sorted(&mut self.pending_barriers, after_seq);
        let keep = self.load_seqs.partition_point(|&s| s <= after_seq);
        self.load_seqs.truncate(keep);
        let keep = self.store_seqs.partition_point(|&s| s <= after_seq);
        self.store_seqs.truncate(keep);

        // Rebuild rename state from the surviving ROB (in order: the
        // youngest writer of each register wins, as before).
        for r in self.rename.iter_mut() {
            *r = None;
        }
        self.flags_rename = None;
        for i in 0..self.rob.len() {
            let (dest, wf, seq) = {
                let u = &self.rob[i];
                (u.inst.dest(), u.inst.writes_flags(), u.seq)
            };
            if let Some(d) = dest {
                self.rename[d.index()] = Some(seq);
            }
            if wf {
                self.flags_rename = Some(seq);
            }
        }
        if self.active_barrier.is_some_and(|b| b > after_seq) {
            self.active_barrier = None;
        }

        self.fetch_queue.clear();
        self.fetch_stalled_on = None;
        self.fetch_pc = Some(redirect_pc);
        self.fetch_resume_at = resume_at;
    }
}
