//! What every workload shares: timed set-up, time-bounded rounds of fixed
//! work, and filling in the end-to-end and trace metrics.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a run finds the repository's binaries and keeps its state.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// How long one measured pass should last, seconds.
    pub seconds: f64,
    /// Directory holding `sas-runner` and `sas-serve`.
    pub bins: PathBuf,
    /// A directory this run owns; emptied before use.
    pub state: PathBuf,
}

impl Ctx {
    /// A fresh, empty subdirectory of the state directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.state.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// A binary built from the repository.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bins.join(name)
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` three times and returns the last result with the median
/// time, so `setup_s` is steady; a traced run sets up once, traced.
pub fn setup<S>(
    trace: bool,
    tr: &Tracer,
    mut f: impl FnMut(&Tracer) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..if trace { 1 } else { 3 } {
        drop(last.take());
        let t = Instant::now();
        last = Some(f(tr)?);
        times.push(secs(t));
    }
    Ok((last.expect("at least one set-up"), stats::pct(&times, 50.0)))
}

/// Runs `round` back to back for about `seconds`: another round starts
/// only while its projected end lies closer to `seconds` than stopping
/// now does. At least one round always runs. Returns the rounds and the
/// wall time of each.
pub fn rounds<T>(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Vec<T>, Vec<f64>), String> {
    let t0 = Instant::now();
    let (mut out, mut walls) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        out.push(round(out.len())?);
        walls.push(secs(t));
        if secs(t0) + walls[walls.len() - 1] / 2.0 >= seconds {
            return Ok((out, walls));
        }
    }
}

/// One measured phase, as rounds of the same ops.
///
/// The host this runs on is shared: bursts of contention slow it by a
/// third for a second or more at a time. Every round repeats the same ops
/// in the same slots, so an op's latency is its median over the rounds and
/// a burst that slows a minority of rounds does not move it.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Per round, the latency (ms) of each op; slot `k` of every round does
    /// the same work.
    pub rounds: Vec<Vec<f64>>,
    /// Wall time of each round, seconds.
    pub round_s: Vec<f64>,
    /// Ops that failed.
    pub failed: u64,
}

impl Pass {
    /// Ops attempted.
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.len() as u64).sum()
    }

    /// Each slot's median latency over the rounds, ms.
    pub fn typical_ms(&self) -> Vec<f64> {
        let slots = self.rounds.iter().map(Vec::len).min().unwrap_or(0);
        (0..slots)
            .map(|k| stats::pct(&self.rounds.iter().map(|r| r[k]).collect::<Vec<_>>(), 50.0))
            .collect()
    }
}

/// Runs the measured phase under the [`trace::ROOT`] span.
pub fn measure<T>(tr: &Tracer, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    tr.group(trace::ROOT, 0, f)
}

/// The end-to-end metrics of an untraced pass: latency percentiles over
/// the ops' typical latencies, and ops per second of the median round.
pub fn fill_e2e(o: &mut Outcome, setup_s: f64, pass: &Pass, peak_rss_mb: f64) {
    o.attempted += pass.ops();
    o.failed += pass.failed;
    let typical = stats::sorted(&pass.typical_ms());
    o.set("setup_s", setup_s);
    o.set("op_p50_ms", stats::percentile(&typical, 50.0));
    o.set("op_p90_ms", stats::percentile(&typical, 90.0));
    let ok = 1.0 - pass.failed as f64 / pass.ops().max(1) as f64;
    let per_round = pass.ops() as f64 / pass.rounds.len().max(1) as f64;
    let round_s = stats::pct(&pass.round_s, 50.0);
    o.set(
        "ops_per_s",
        if round_s > 0.0 {
            ok * per_round / round_s
        } else {
            0.0
        },
    );
    o.set("peak_rss_mb", peak_rss_mb);
}

/// The trace metrics of a traced run: coverage, per-layer self time and
/// the overhead against the untraced pass of the same run.
pub fn fill_trace(
    o: &mut Outcome,
    untraced: &Pass,
    traced: &Pass,
    spans: &[Span],
    spans_out: &Path,
) {
    o.attempted += untraced.ops() + traced.ops();
    o.failed += untraced.failed + traced.failed;
    let p = trace::profile(spans);
    let base = stats::mean(&untraced.typical_ms());
    let with = stats::mean(&traced.typical_ms());
    o.set(
        "trace.overhead_frac",
        if base > 0.0 { with / base - 1.0 } else { 0.0 },
    );
    o.set("trace.coverage_frac", p.coverage);
    o.set("trace.spans", p.spans as f64);
    for layer in crate::metrics::LAYERS {
        let name = crate::metrics::find(&format!("self_frac.{layer}"))
            .expect("registered")
            .name;
        let s = p.self_s.get(layer).copied().unwrap_or(0.0);
        o.set(name, if p.wall_s > 0.0 { s / p.wall_s } else { 0.0 });
    }
    if let Err(e) = std::fs::write(spans_out, trace::to_jsonl(spans)) {
        o.problem(format!("cannot write {}: {e}", spans_out.display()));
    }
}

/// The simulated statistics of `runs`, summed: cycles, committed
/// instructions, squashed over fetched, and L1D and L2 miss rates.
pub fn fill_sim(o: &mut Outcome, runs: &[&sas_pipeline::RunResult]) {
    let sum =
        |f: &dyn Fn(&sas_pipeline::RunResult) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    o.set("sim.cycles", sum(&|r| r.cycles));
    o.set("sim.committed", sum(&|r| r.committed()));
    let squashed = sum(&|r| r.core_stats.iter().map(|s| s.squashed).sum());
    o.set(
        "sim.squash_frac",
        ratio(
            squashed,
            sum(&|r| r.core_stats.iter().map(|s| s.fetched).sum()),
        ),
    );
    let l1_miss = sum(&|r| r.mem_stats.l1d.iter().map(|s| s.misses).sum());
    let l1_hit = sum(&|r| r.mem_stats.l1d.iter().map(|s| s.hits).sum());
    o.set("sim.l1d_miss_rate", ratio(l1_miss, l1_miss + l1_hit));
    let l2_miss = sum(&|r| r.mem_stats.l2.misses);
    o.set(
        "sim.l2_miss_rate",
        ratio(l2_miss, l2_miss + sum(&|r| r.mem_stats.l2.hits)),
    );
}

/// Mean duration in milliseconds of the spans named `name`.
pub fn span_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    stats::mean(&d)
}

/// The simulated statistics a run produced, as bytes; their FNV-1a hash is
/// the run's `sim_digest`.
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    /// Adds a number.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Adds a string and a separator.
    pub fn str(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
        self.0.push(0);
    }

    /// The FNV-1a hash of everything added.
    pub fn value(&self) -> u64 {
        sas_snap::fnv1a(&self.0)
    }
}

/// Shuffles `v` in place with a seeded Fisher–Yates.
pub fn shuffle<T>(v: &mut [T], rng: &mut sas_ptest::Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_stop_near_the_requested_time() {
        let (r, walls) = rounds(0.05, |i| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            Ok(i)
        })
        .unwrap();
        // 20 ms rounds toward 50 ms: after two rounds (40 ms) a third would
        // end 10 ms past the target, no closer than stopping now.
        assert_eq!(r, vec![0, 1]);
        assert!(walls.iter().all(|&w| w >= 0.02));
        let (one, _) = rounds(0.0, Ok).unwrap();
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn a_slow_minority_of_rounds_does_not_move_an_op() {
        let pass = Pass {
            rounds: vec![vec![10.0, 100.0], vec![14.0, 140.0], vec![10.5, 101.0]],
            round_s: vec![0.11, 0.154, 0.112],
            failed: 0,
        };
        assert_eq!(pass.typical_ms(), vec![10.5, 101.0]);
        assert_eq!(pass.ops(), 6);
        let mut o = Outcome::new("query", 1, 1.0, false);
        fill_e2e(&mut o, 0.5, &pass, 10.0);
        assert_eq!(o.values["op_p50_ms"], 10.5);
        assert_eq!(o.values["op_p90_ms"], 101.0);
        assert!((o.values["ops_per_s"] - 2.0 / 0.112).abs() < 1e-9);
    }

    #[test]
    fn shuffle_is_seeded() {
        let base: Vec<u32> = (0..20).collect();
        let run = |seed| {
            let mut v = base.clone();
            shuffle(&mut v, &mut sas_ptest::Rng::new(seed));
            v
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        let mut s = run(3);
        s.sort_unstable();
        assert_eq!(s, base);
    }
}
