//! The bounded FIFO job queue behind admission control.
//!
//! `push` never blocks and never grows past the cap: a full queue is the
//! *caller's* problem to surface (HTTP 503 + `Retry-After`), not a hidden
//! buffer. Jobs pop in arrival order, and cancelling a queued job removes
//! exactly that job (property-tested against a `Vec` model in
//! `tests/queue_prop.rs`).

use std::collections::VecDeque;

/// A push refused because every slot is taken. Maps to an explicit 503.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full;

/// The bounded FIFO. Stores job ids; the owner keeps the job table. Not
/// internally synchronized — wrap in a `Mutex`.
#[derive(Debug, Clone)]
pub struct JobQueue {
    cap: usize,
    ids: VecDeque<u64>,
}

impl JobQueue {
    /// An empty queue admitting at most `cap` jobs (minimum 1).
    pub fn new(cap: usize) -> JobQueue {
        JobQueue { cap: cap.max(1), ids: VecDeque::new() }
    }

    /// Queued job count.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The configured capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Admits a job at the back, or refuses it when the queue is full.
    pub fn push(&mut self, job: u64) -> Result<(), Full> {
        if self.ids.len() >= self.cap {
            return Err(Full);
        }
        self.ids.push_back(job);
        Ok(())
    }

    /// Pops the oldest queued job.
    pub fn pop(&mut self) -> Option<u64> {
        self.ids.pop_front()
    }

    /// Removes a queued job by id, keeping the order of the rest. Returns
    /// whether it was present.
    pub fn cancel(&mut self, job: u64) -> bool {
        match self.ids.iter().position(|&id| id == job) {
            Some(i) => {
                self.ids.remove(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_arrival_order() {
        let mut q = JobQueue::new(8);
        for id in 0..4 {
            q.push(id).unwrap();
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cancel_removes_exactly_the_target() {
        let mut q = JobQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert!(q.cancel(1));
        assert!(!q.cancel(1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![2, 3]);
    }
}
