//! Model-based property test for the admission queue (DESIGN.md §13):
//! under any interleaving of push, pop and cancel, the queue behaves like
//! a capped `Vec` — pops come out in arrival order minus the cancelled
//! ids, and a push is refused exactly when the queue is full.

use sas_ptest::check;
use sas_serve::queue::{Full, JobQueue};

#[test]
fn cancellation_never_disturbs_the_remaining_order() {
    check("queue_fifo_model", 200, |rng| {
        let cap = rng.range(1, 12) as usize;
        let mut q = JobQueue::new(cap);
        let mut model: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..rng.range(1, 200) {
            match rng.below(3) {
                0 => {
                    let pushed = q.push(next_id);
                    if model.len() == cap {
                        assert_eq!(pushed, Err(Full), "push into a full queue of {cap}");
                    } else {
                        assert_eq!(pushed, Ok(()), "push with {} of {cap} taken", model.len());
                        model.push(next_id);
                    }
                    next_id += 1;
                }
                1 => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(q.pop(), want);
                }
                _ => {
                    // Cancel a queued id most of the time, a gone one otherwise.
                    let target = match model.len() {
                        0 => next_id,
                        n if rng.chance(0.8) => model[rng.below(n as u64) as usize],
                        _ => rng.below(next_id + 1),
                    };
                    let queued = model.contains(&target);
                    model.retain(|&id| id != target);
                    assert_eq!(q.cancel(target), queued, "cancel {target}");
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
        }
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, model);
    });
}
