//! Deterministic fault injection plans.
//!
//! A [`FaultPlan`] schedules perturbations at named injection points inside
//! the simulator — tag-nibble flips in the MTE tag store, dropped or delayed
//! fills in the MSHR/LFB path, forced mispredictions and squash storms in the
//! branch predictor. Every point draws from its own [`FaultStream`], a
//! SplitMix64 sequence derived from `(plan seed, point name)`, so the streams
//! are mutually independent and a whole chaos campaign replays bit-for-bit
//! from the single seed reported on failure. A plan travels between
//! processes as its [`FaultPlan::to_spec`] string (the `--fault-plan SPEC`
//! flag of `sas-runner cell` and `sas-sim workload`); nothing here reads the
//! environment.
//!
//! The plan lives in the test harness crate because it reuses the harness
//! PRNG ([`crate::Rng`]) and its seed-derivation scheme; the simulator crates
//! consume streams but never construct randomness of their own.

use crate::rng::{fnv1a, mix, Rng};
use std::fmt;

/// A named place in the simulator where a plan may inject faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// Flip one bit of a stored tag nibble in `mte::storage`.
    TagFlip,
    /// Flip one bit of architectural memory inside the target window.
    ArchBitFlip,
    /// Drop a demand fill: the MSHR entry never completes in any realistic
    /// budget, so the core livelocks and the deadlock detector must trip.
    MshrDropFill,
    /// Delay a fill by a bounded number of extra cycles (benign: must only
    /// perturb the schedule, never the architectural result).
    FillDelay,
    /// Invert one conditional-branch prediction in `pipeline::predictor`.
    ForceMispredict,
    /// Invert a burst of consecutive predictions, forcing repeated squashes.
    SquashStorm,
}

impl InjectionPoint {
    /// Every injection point, in a fixed order.
    pub const ALL: [InjectionPoint; 6] = [
        InjectionPoint::TagFlip,
        InjectionPoint::ArchBitFlip,
        InjectionPoint::MshrDropFill,
        InjectionPoint::FillDelay,
        InjectionPoint::ForceMispredict,
        InjectionPoint::SquashStorm,
    ];

    /// Stable name; part of the stream-derivation contract, so renaming a
    /// point changes its stream (and is a replay-breaking change).
    pub fn name(self) -> &'static str {
        match self {
            InjectionPoint::TagFlip => "tag_flip",
            InjectionPoint::ArchBitFlip => "arch_bit_flip",
            InjectionPoint::MshrDropFill => "mshr_drop_fill",
            InjectionPoint::FillDelay => "fill_delay",
            InjectionPoint::ForceMispredict => "force_mispredict",
            InjectionPoint::SquashStorm => "squash_storm",
        }
    }

    fn index(self) -> usize {
        InjectionPoint::ALL.iter().position(|p| *p == self).unwrap_or(0)
    }
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-point schedule: how often the point fires and how many times at most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PointConfig {
    /// Firing probability per candidate event, in per-mille (1000 = always).
    rate_pm: u32,
    /// Hard cap on injections from this point (0 = disabled).
    max_events: u64,
    /// Candidate events skipped before the point may fire (varies *where* a
    /// deterministic rate-1000 fault lands).
    warmup: u64,
}

/// A replayable schedule of fault injections, derived from one seed.
///
/// ```
/// use sas_ptest::fault::{FaultPlan, InjectionPoint};
/// let plan = FaultPlan::new(7)
///     .enable(InjectionPoint::TagFlip, 1000, 1)
///     .target_window(0x4000, 0x200);
/// let mut a = plan.stream(InjectionPoint::TagFlip);
/// let mut b = plan.stream(InjectionPoint::TagFlip);
/// assert_eq!(a.fires(), b.fires());
/// assert!(!plan.stream(InjectionPoint::SquashStorm).fires(), "disabled point");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    points: [PointConfig; 6],
    target_base: u64,
    target_len: u64,
}

impl FaultPlan {
    /// A plan with every point disabled.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            points: [PointConfig { rate_pm: 0, max_events: 0, warmup: 0 }; 6],
            target_base: 0,
            target_len: 0,
        }
    }

    /// The campaign seed this plan derives every stream from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Enables `point` at `rate_pm` per-mille per candidate event, capped at
    /// `max_events` total injections.
    pub fn enable(mut self, point: InjectionPoint, rate_pm: u32, max_events: u64) -> FaultPlan {
        self.points[point.index()].rate_pm = rate_pm.min(1000);
        self.points[point.index()].max_events = max_events;
        self
    }

    /// Skips the first `calls` candidate events at `point` before it may
    /// fire, moving a deterministic fault to a varied position.
    pub fn warmup(mut self, point: InjectionPoint, calls: u64) -> FaultPlan {
        self.points[point.index()].warmup = calls;
        self
    }

    /// Restricts memory-corrupting points to `[base, base + len)`.
    pub fn target_window(mut self, base: u64, len: u64) -> FaultPlan {
        self.target_base = base;
        self.target_len = len;
        self
    }

    /// The `[base, len)` window memory-corrupting points are confined to.
    pub fn window(&self) -> (u64, u64) {
        (self.target_base, self.target_len)
    }

    /// Renders the plan as a machine-readable spec string that
    /// [`FaultPlan::from_spec`] parses back: `seed=<hex>` first, then
    /// `window=<base>+<len>` if set, then one `<point>=<rate>,<max>,<warmup>`
    /// per enabled point. Repro bundles and the `sas-runner` `--fault-plan`
    /// flags carry plans in this form.
    pub fn to_spec(&self) -> String {
        let mut s = format!("seed={:#x}", self.seed);
        if self.target_len > 0 {
            s.push_str(&format!(" window={:#x}+{:#x}", self.target_base, self.target_len));
        }
        for p in InjectionPoint::ALL {
            let cfg = self.points[p.index()];
            if cfg.max_events > 0 && cfg.rate_pm > 0 {
                s.push_str(&format!(
                    " {}={},{},{}",
                    p.name(),
                    cfg.rate_pm,
                    cfg.max_events,
                    cfg.warmup
                ));
            }
        }
        s
    }

    /// Parses a [`FaultPlan::to_spec`] string. Whitespace-separated
    /// `key=value` tokens; unknown keys are an error so typos never silently
    /// disarm a repro.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        fn num(s: &str) -> Result<u64, String> {
            let s = s.trim();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(h) => u64::from_str_radix(h, 16).map_err(|_| format!("bad number {s:?}")),
                None => s.parse().map_err(|_| format!("bad number {s:?}")),
            }
        }
        let mut plan: Option<FaultPlan> = None;
        let mut window: Option<(u64, u64)> = None;
        let mut enables: Vec<(InjectionPoint, u32, u64, u64)> = Vec::new();
        for tok in spec.split_whitespace() {
            let (key, value) =
                tok.split_once('=').ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
            match key {
                "seed" => plan = Some(FaultPlan::new(num(value)?)),
                "window" => {
                    let (b, l) = value
                        .split_once('+')
                        .ok_or_else(|| format!("window needs base+len, got {value:?}"))?;
                    window = Some((num(b)?, num(l)?));
                }
                name => {
                    let point = InjectionPoint::ALL
                        .into_iter()
                        .find(|p| p.name() == name)
                        .ok_or_else(|| format!("unknown injection point {name:?}"))?;
                    let parts: Vec<&str> = value.split(',').collect();
                    if parts.len() != 2 && parts.len() != 3 {
                        return Err(format!("{name} needs rate,max[,warmup], got {value:?}"));
                    }
                    let rate = num(parts[0])? as u32;
                    let max = num(parts[1])?;
                    let warmup = if parts.len() == 3 { num(parts[2])? } else { 0 };
                    enables.push((point, rate, max, warmup));
                }
            }
        }
        let mut plan = plan.ok_or_else(|| "spec is missing seed=".to_string())?;
        if let Some((b, l)) = window {
            plan = plan.target_window(b, l);
        }
        for (p, rate, max, warmup) in enables {
            plan = plan.enable(p, rate, max).warmup(p, warmup);
        }
        Ok(plan)
    }

    /// Derives the independent stream for `point`. Same plan + same point →
    /// identical sequence, always.
    pub fn stream(&self, point: InjectionPoint) -> FaultStream {
        let cfg = self.points[point.index()];
        FaultStream {
            point,
            rate_pm: cfg.rate_pm,
            max_events: cfg.max_events,
            warmup: cfg.warmup,
            calls: 0,
            injected: 0,
            rng: Rng::new(mix(self.seed ^ fnv1a(point.name()))),
            target_base: self.target_base,
            target_len: self.target_len,
        }
    }

    /// One-line human description, embedded in crash dumps so every abnormal
    /// exit names the plan that produced it.
    pub fn describe(&self) -> String {
        let mut s = format!("seed={:#x}", self.seed);
        for p in InjectionPoint::ALL {
            let cfg = self.points[p.index()];
            if cfg.max_events > 0 && cfg.rate_pm > 0 {
                s.push_str(&format!(
                    " {}(rate={}‰,max={},warmup={})",
                    p.name(),
                    cfg.rate_pm,
                    cfg.max_events,
                    cfg.warmup
                ));
            }
        }
        if self.target_len > 0 {
            s.push_str(&format!(
                " window={:#x}+{:#x}",
                self.target_base, self.target_len
            ));
        }
        s
    }
}

/// The per-point injection sequence a simulator component polls.
///
/// Components call [`FaultStream::fires`] once per candidate event (one per
/// load, one per predicted branch, …); the stream decides deterministically
/// whether that event is perturbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultStream {
    point: InjectionPoint,
    rate_pm: u32,
    max_events: u64,
    warmup: u64,
    calls: u64,
    injected: u64,
    rng: Rng,
    target_base: u64,
    target_len: u64,
}

impl FaultStream {
    /// A stream that never fires (for components armed without a plan).
    pub fn disabled(point: InjectionPoint) -> FaultStream {
        FaultPlan::new(0).stream(point)
    }

    /// Which point this stream drives.
    pub fn point(&self) -> InjectionPoint {
        self.point
    }

    /// Polls the next candidate event; `true` means inject here.
    pub fn fires(&mut self) -> bool {
        if self.max_events == 0 || self.injected >= self.max_events {
            return false;
        }
        self.calls += 1;
        if self.calls <= self.warmup {
            return false;
        }
        // Draw even on sub-warmup paths? No: the warmup check above keeps the
        // stream position a pure function of (seed, fires-after-warmup), so
        // changing warmup only shifts *where* the fault lands.
        let fire = self.rng.below(1000) < self.rate_pm as u64;
        if fire {
            self.injected += 1;
        }
        fire
    }

    /// Number of injections performed so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Picks an `align`-aligned address inside the plan's target window.
    /// Returns `target_base` when the window is empty or smaller than one
    /// aligned slot.
    pub fn pick_in_window(&mut self, align: u64) -> u64 {
        let align = align.max(1);
        let slots = self.target_len / align;
        if slots == 0 {
            return self.target_base;
        }
        self.target_base + self.rng.below(slots) * align
    }

    /// Uniform draw in `[0, bound)` from the stream's private sequence.
    pub fn pick_below(&mut self, bound: u64) -> u64 {
        self.rng.below(bound)
    }

    /// Serializes the stream cursor (call/injection counts + RNG state).
    /// The static plan parameters (rates, caps, window) are not written:
    /// restore targets re-arm the identical plan first, so only the cursor
    /// differs from a freshly armed stream.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        e.uv(self.point.index() as u64);
        e.uv(self.calls);
        e.uv(self.injected);
        e.uv(self.rng.state());
    }

    /// Restores the stream cursor written by [`FaultStream::encode`].
    ///
    /// # Errors
    ///
    /// Truncated input, or a cursor recorded for a different injection
    /// point than this stream drives.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let point = d.uv()?;
        if point != self.point.index() as u64 {
            return Err(sas_snap::SnapError::BadValue {
                what: "fault stream point",
                value: point,
            });
        }
        self.calls = d.uv()?;
        self.injected = d.uv()?;
        self.rng.set_state(d.uv()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_replay_from_the_seed() {
        let plan = FaultPlan::new(0xC0FFEE)
            .enable(InjectionPoint::TagFlip, 250, 8)
            .enable(InjectionPoint::FillDelay, 500, 8)
            .target_window(0x4000, 0x200);
        let mut a = plan.stream(InjectionPoint::TagFlip);
        let mut b = plan.clone().stream(InjectionPoint::TagFlip);
        let fa: Vec<bool> = (0..64).map(|_| a.fires()).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.fires()).collect();
        assert_eq!(fa, fb);
        assert_eq!(a.pick_in_window(8), b.pick_in_window(8));
    }

    #[test]
    fn points_draw_independent_sequences() {
        let plan = FaultPlan::new(1)
            .enable(InjectionPoint::TagFlip, 500, 64)
            .enable(InjectionPoint::ArchBitFlip, 500, 64);
        let mut a = plan.stream(InjectionPoint::TagFlip);
        let mut b = plan.stream(InjectionPoint::ArchBitFlip);
        let fa: Vec<bool> = (0..128).map(|_| a.fires()).collect();
        let fb: Vec<bool> = (0..128).map(|_| b.fires()).collect();
        assert_ne!(fa, fb, "per-point streams must not be correlated");
    }

    #[test]
    fn max_events_caps_injections() {
        let plan = FaultPlan::new(2).enable(InjectionPoint::MshrDropFill, 1000, 3);
        let mut s = plan.stream(InjectionPoint::MshrDropFill);
        let fired = (0..100).filter(|_| s.fires()).count();
        assert_eq!(fired, 3);
        assert_eq!(s.injected(), 3);
    }

    #[test]
    fn warmup_defers_the_first_injection() {
        let plan =
            FaultPlan::new(3).enable(InjectionPoint::TagFlip, 1000, 1).warmup(InjectionPoint::TagFlip, 5);
        let mut s = plan.stream(InjectionPoint::TagFlip);
        let first = (0..100).position(|_| s.fires());
        assert_eq!(first, Some(5), "fires on the first post-warmup candidate");
    }

    #[test]
    fn window_picks_stay_aligned_and_bounded() {
        let plan = FaultPlan::new(4)
            .enable(InjectionPoint::ArchBitFlip, 1000, 100)
            .target_window(0x4000, 0x200);
        let mut s = plan.stream(InjectionPoint::ArchBitFlip);
        for _ in 0..200 {
            let a = s.pick_in_window(16);
            assert_eq!(a % 16, 0);
            assert!((0x4000..0x4200).contains(&a));
        }
    }

    #[test]
    fn disabled_points_never_fire() {
        let plan = FaultPlan::new(5).enable(InjectionPoint::TagFlip, 1000, 4);
        let mut s = plan.stream(InjectionPoint::SquashStorm);
        assert!((0..100).all(|_| !s.fires()));
        let mut d = FaultStream::disabled(InjectionPoint::TagFlip);
        assert!((0..100).all(|_| !d.fires()));
    }

    #[test]
    fn spec_round_trips_and_replays_identically() {
        let plan = FaultPlan::new(0xDEAD_BEEF)
            .enable(InjectionPoint::TagFlip, 250, 8)
            .enable(InjectionPoint::SquashStorm, 100, 4)
            .warmup(InjectionPoint::TagFlip, 7)
            .target_window(0x4000, 0x200);
        let spec = plan.to_spec();
        let back = FaultPlan::from_spec(&spec).unwrap();
        assert_eq!(plan, back, "{spec}");
        let mut a = plan.stream(InjectionPoint::TagFlip);
        let mut b = back.stream(InjectionPoint::TagFlip);
        let fa: Vec<bool> = (0..64).map(|_| a.fires()).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.fires()).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn from_spec_rejects_garbage() {
        assert!(FaultPlan::from_spec("").is_err(), "missing seed");
        assert!(FaultPlan::from_spec("seed=1 bogus_point=1000,1").is_err());
        assert!(FaultPlan::from_spec("seed=1 tag_flip=1000").is_err(), "missing max");
        assert!(FaultPlan::from_spec("seed=1 window=0x4000").is_err(), "missing len");
        assert!(FaultPlan::from_spec("tag_flip=1000,1").is_err(), "no seed");
    }

    #[test]
    fn describe_names_enabled_points() {
        let plan = FaultPlan::new(0x2A)
            .enable(InjectionPoint::TagFlip, 1000, 1)
            .target_window(0x4000, 0x200);
        let d = plan.describe();
        assert!(d.contains("seed=0x2a"));
        assert!(d.contains("tag_flip"));
        assert!(!d.contains("squash_storm"));
    }
}
