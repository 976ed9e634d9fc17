//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into one of the
//! repository's layers. Its name is `<layer>.<call>`, so the layer is the
//! part before the first dot. Spans keep their parent (the span open on
//! the same thread when they started) and a group id shared by every span
//! of one cell, request or operation. Nothing is written until the run
//! ends, and a disabled tracer only tests one flag per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the span around a workload's measured phase. Its layer,
/// `hostbench`, is the benchmark's own code.
pub const ROOT: &str = "hostbench.measure";

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for none.
    pub parent: u64,
    /// Id shared by the spans of one cell, request or operation.
    pub group: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Open spans on this thread: `(id, group)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the wrapped calls.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span that joins the enclosing span's group.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let group = OPEN.with(|o| o.borrow().last().map_or(0, |&(_, g)| g));
        self.record(name, group, f)
    }

    /// Runs `f` inside a span that starts group `group`.
    pub fn group<R>(&self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.record(name, group, f)
    }

    /// The innermost span open on this thread, for threads it spawns to
    /// nest their spans under (see [`Tracer::within`]).
    pub fn current(&self) -> Option<(u64, u64)> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Runs `f` on this thread as if span `open` (from [`Tracer::current`]
    /// on another thread) enclosed it.
    pub fn within<R>(&self, open: Option<(u64, u64)>, f: impl FnOnce() -> R) -> R {
        let Some(open) = open.filter(|_| self.on) else {
            return f();
        };
        OPEN.with(|o| o.borrow_mut().push(open));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        out
    }

    fn record<R>(&self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().map_or(0, |&(p, _)| p);
            o.push((id, group));
            parent
        });
        let start = self.now();
        let out = f();
        let end = self.now();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent,
            group,
            name,
            start,
            end,
        });
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every finished span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by_key(|s| (s.start, s.id));
        v
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of each span, in the order given: its duration minus the
/// part of its interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |kids| {
                let clipped = kids
                    .iter()
                    .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect();
                union_len(clipped)
            });
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// What the spans of one traced measured phase say about where its wall
/// time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Wall time of the [`ROOT`] span, in seconds.
    pub wall_s: f64,
    /// Share of that wall time during which at least one span of a
    /// repository layer (any layer but `hostbench`) was open.
    pub coverage: f64,
    /// Self time per layer, in seconds. Spans on concurrent threads add
    /// up, so the sum can exceed the wall time.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Spans recorded inside the measured phase.
    pub spans: usize,
}

/// Summarises the spans inside the (last) [`ROOT`] span.
pub fn profile(spans: &[Span]) -> Profile {
    let Some(root) = spans
        .iter()
        .filter(|s| s.name == ROOT)
        .max_by_key(|s| s.start)
    else {
        return Profile {
            wall_s: 0.0,
            coverage: 0.0,
            self_s: BTreeMap::new(),
            spans: 0,
        };
    };
    let inside: Vec<Span> = spans
        .iter()
        .filter(|s| s.start >= root.start && s.end <= root.end)
        .cloned()
        .collect();
    let wall = root.end - root.start;
    let layer_iv = inside
        .iter()
        .filter(|s| s.layer() != "hostbench")
        .map(|s| (s.start, s.end))
        .collect();
    let mut self_s = BTreeMap::new();
    for (s, t) in inside.iter().zip(self_times(&inside)) {
        *self_s.entry(s.layer()).or_insert(0.0) += t as f64 / 1e9;
    }
    Profile {
        wall_s: wall as f64 / 1e9,
        coverage: if wall == 0 {
            0.0
        } else {
            union_len(layer_iv) as f64 / wall as f64
        },
        self_s,
        spans: inside.len(),
    }
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.group, s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 7,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, ROOT, 0, 100),
            span(2, 1, "core.a", 10, 40),
            span(3, 1, "core.b", 30, 60), // overlaps a: union 10..60
            span(4, 2, "pipeline.c", 15, 20),
            span(5, 1, "core.d", 90, 120), // clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30]);
    }

    #[test]
    fn profile_reports_layer_coverage_and_self_time() {
        let spans = vec![
            span(1, 0, ROOT, 0, 1_000),
            span(2, 1, "hostbench.cell", 0, 1_000),
            span(3, 2, "pipeline.run", 100, 600),
            span(4, 2, "core.build", 600, 900),
            span(5, 0, "workloads.build", 2_000, 3_000), // outside the root
        ];
        let p = profile(&spans);
        assert_eq!(p.spans, 4);
        assert!((p.coverage - 0.8).abs() < 1e-12);
        assert!((p.self_s["hostbench"] - 200e-9).abs() < 1e-15);
        assert!((p.self_s["pipeline"] - 500e-9).abs() < 1e-15);
        assert!(!p.self_s.contains_key("workloads"));
    }

    #[test]
    fn tracer_links_parents_and_groups() {
        let tr = Tracer::new(true);
        tr.group(ROOT, 3, || {
            tr.span("core.x", || tr.span("pipeline.y", || ()))
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("core.x").parent, by(ROOT).id);
        assert_eq!(by("pipeline.y").parent, by("core.x").id);
        assert!(spans.iter().all(|s| s.group == 3));
        assert!(to_jsonl(&spans).lines().count() == 3);

        // A span opened on another thread nests under the one handed over.
        let root = tr.group(ROOT, 9, || {
            let open = tr.current();
            std::thread::scope(|s| {
                s.spawn(|| tr.within(open, || tr.span("serve.rpc", || ())));
            });
            open.map(|(id, _)| id)
        });
        let rpc = tr
            .spans()
            .into_iter()
            .find(|s| s.name == "serve.rpc")
            .unwrap();
        assert_eq!((Some(rpc.parent), rpc.group), (root, 9));

        let off = Tracer::new(false);
        assert_eq!(off.span("core.x", || 5), 5);
        assert!(off.spans().is_empty());
    }
}
