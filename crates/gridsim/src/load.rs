//! Background-load (availability) models for grid nodes.
//!
//! A node's *availability* `a(t) ∈ [0, 1]` is the fraction of its nominal
//! speed the pipeline can actually use at simulated time `t`; the remainder
//! is consumed by other grid users. Availability models are **pure
//! functions of time** fixed at construction: the simulator can therefore
//! integrate work across future load changes exactly, and runs are
//! reproducible under a seed.
//!
//! All stochastic variants (random walk, Markov on/off) are lowered at
//! construction to a piecewise-constant trace over a finite horizon that
//! repeats cyclically, so queries are `O(log n)` and take `&self`.

use crate::rng::{exp_at, mix, unit_f64};
use crate::time::{SimDuration, SimTime};

/// A piecewise-constant function of simulated time.
///
/// `points` holds `(start_time, value)` segments sorted by time, with the
/// first segment starting at `t = 0`. If `cycle` is set, the function
/// repeats with that period; otherwise the last segment extends forever.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseConst {
    points: Vec<(SimTime, f64)>,
    cycle: Option<SimDuration>,
}

impl PiecewiseConst {
    /// Builds a piecewise-constant function.
    ///
    /// # Panics
    /// Panics if `points` is empty, unsorted, does not start at `t = 0`,
    /// or if `cycle` is shorter than the last segment start.
    pub fn new(points: Vec<(SimTime, f64)>, cycle: Option<SimDuration>) -> Self {
        assert!(
            !points.is_empty(),
            "piecewise trace needs at least one segment"
        );
        assert_eq!(
            points[0].0,
            SimTime::ZERO,
            "first segment must start at t=0"
        );
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "piecewise segments must be strictly increasing in time"
        );
        if let Some(c) = cycle {
            let last = points.last().expect("non-empty").0;
            assert!(
                SimTime::ZERO + c > last,
                "cycle {c} must extend past the last segment start {last}"
            );
        }
        PiecewiseConst { points, cycle }
    }

    /// Value at time `t`.
    fn value_at(&self, t: SimTime) -> f64 {
        let local = self.localise(t);
        match self.points.binary_search_by(|probe| probe.0.cmp(&local)) {
            Ok(i) => self.points[i].1,
            Err(0) => unreachable!("first segment starts at 0"),
            Err(i) => self.points[i - 1].1,
        }
    }

    /// The next time strictly after `t` at which the value may change,
    /// or `None` if the function is constant from `t` on.
    fn next_change(&self, t: SimTime) -> Option<SimTime> {
        // Which cycle are we in, and where within it?
        let (base, local) = match self.cycle {
            None => (0, t),
            Some(cycle) => {
                let base = t.as_nanos() / cycle.as_nanos() * cycle.as_nanos();
                (base, SimTime::from_nanos(t.as_nanos() - base))
            }
        };
        let after = self.points.partition_point(|&(start, _)| start <= local);
        match (self.points.get(after), self.cycle) {
            (Some(&(start, _)), _) => Some(SimTime::from_nanos(base + start.as_nanos())),
            // Wrap to the start of the next cycle.
            (None, Some(cycle)) => Some(SimTime::from_nanos(base + cycle.as_nanos())),
            (None, None) => None,
        }
    }

    /// [`PiecewiseConst::next_change`] as it was before the binary
    /// search — two linear scans — kept as the reference the tests
    /// check the search against.
    #[cfg(test)]
    fn next_change_linear(&self, t: SimTime) -> Option<SimTime> {
        match self.cycle {
            None => {
                let idx = self.points.iter().position(|&(start, _)| start > t)?;
                Some(self.points[idx].0)
            }
            Some(cycle) => {
                let cycle_ns = cycle.as_nanos();
                let base = t.as_nanos() / cycle_ns * cycle_ns;
                let local = SimTime::from_nanos(t.as_nanos() - base);
                for &(start, _) in &self.points {
                    if start > local {
                        return Some(SimTime::from_nanos(base + start.as_nanos()));
                    }
                }
                Some(SimTime::from_nanos(base + cycle_ns))
            }
        }
    }

    fn localise(&self, t: SimTime) -> SimTime {
        match self.cycle {
            None => t,
            Some(c) => SimTime::from_nanos(t.as_nanos() % c.as_nanos()),
        }
    }

    /// Number of segments in one cycle (or in the whole trace).
    pub fn segment_count(&self) -> usize {
        self.points.len()
    }
}

/// Availability model of one grid node over simulated time.
///
/// Values are clamped to `[0, 1]` at query time. An availability of `0`
/// models a node that is (temporarily) unusable.
#[derive(Clone, Debug)]
pub enum LoadModel {
    /// Constant availability.
    Constant {
        /// The fixed availability level in `[0, 1]`.
        level: f64,
    },
    /// A single step change at a known instant — the canonical "another
    /// job arrived on this node" event.
    Step {
        /// Availability before `at`.
        before: f64,
        /// Availability from `at` on.
        after: f64,
        /// The instant of the change.
        at: SimTime,
    },
    /// Periodic square wave alternating between `hi` and `lo`.
    SquareWave {
        /// Availability during the high phase.
        hi: f64,
        /// Availability during the low phase.
        lo: f64,
        /// Full period of the wave.
        period: SimDuration,
        /// Fraction of the period spent in the high phase, in `(0, 1)`.
        duty: f64,
        /// Offset applied to the clock before phase computation.
        phase: SimDuration,
    },
    /// Arbitrary piecewise-constant trace (optionally cyclic). Stochastic
    /// models are lowered to this representation at construction.
    Trace(PiecewiseConst),
    /// A base model with capped-availability windows layered on top —
    /// the representation of injected faults. Within a window the
    /// availability is `min(base, cap)`; outside, the base applies
    /// unchanged. Windows are sorted and disjoint.
    Overlay {
        /// The underlying model.
        base: Box<LoadModel>,
        /// Sorted, disjoint `(from, to, cap)` windows.
        windows: Vec<OverlayWindow>,
    },
}

/// One availability-cap window of a [`LoadModel::Overlay`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlayWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// Availability ceiling inside the window (`0.0` = outage).
    pub cap: f64,
}

impl LoadModel {
    /// Fully available node (availability 1).
    pub fn free() -> Self {
        LoadModel::Constant { level: 1.0 }
    }

    /// Constant availability `level`.
    pub fn constant(level: f64) -> Self {
        assert!((0.0..=1.0).contains(&level), "level must be in [0,1]");
        LoadModel::Constant { level }
    }

    /// Step from `before` to `after` at time `at`.
    pub fn step(before: f64, after: f64, at: SimTime) -> Self {
        assert!((0.0..=1.0).contains(&before) && (0.0..=1.0).contains(&after));
        LoadModel::Step { before, after, at }
    }

    /// Square wave between `hi` and `lo` with the given period and duty cycle.
    pub fn square_wave(
        hi: f64,
        lo: f64,
        period: SimDuration,
        duty: f64,
        phase: SimDuration,
    ) -> Self {
        assert!((0.0..=1.0).contains(&hi) && (0.0..=1.0).contains(&lo));
        assert!(duty > 0.0 && duty < 1.0, "duty must be in (0,1)");
        assert!(!period.is_zero(), "period must be positive");
        LoadModel::SquareWave {
            hi,
            lo,
            period,
            duty,
            phase,
        }
    }

    /// Sinusoidal availability `mean + amplitude·sin(2πt/period)`,
    /// discretised into `segments` piecewise-constant steps per period.
    pub fn sinusoid(mean: f64, amplitude: f64, period: SimDuration, segments: usize) -> Self {
        assert!(segments >= 2, "need at least two segments per period");
        assert!(!period.is_zero(), "period must be positive");
        let seg_ns = (period.as_nanos() / segments as u64).max(1);
        let points = (0..segments)
            .map(|k| {
                let start = SimTime::from_nanos(k as u64 * seg_ns);
                // Sample at the segment midpoint.
                let mid = (k as f64 + 0.5) / segments as f64;
                let v = mean + amplitude * (std::f64::consts::TAU * mid).sin();
                (start, v.clamp(0.0, 1.0))
            })
            .collect();
        LoadModel::Trace(PiecewiseConst::new(
            points,
            Some(SimDuration::from_nanos(seg_ns * segments as u64)),
        ))
    }

    /// Bounded random walk: availability starts at `start` and moves by a
    /// uniform step in `[-step, step]` every `dt`, reflected into
    /// `[lo, hi]`. Lowered to a cyclic trace spanning `horizon`.
    pub fn random_walk(
        seed: u64,
        start: f64,
        step: f64,
        dt: SimDuration,
        lo: f64,
        hi: f64,
        horizon: SimDuration,
    ) -> Self {
        assert!(
            lo >= 0.0 && hi <= 1.0 && lo < hi,
            "bounds must satisfy 0≤lo<hi≤1"
        );
        assert!(!dt.is_zero() && !horizon.is_zero());
        let steps = (horizon.as_nanos() / dt.as_nanos()).max(1) as usize;
        let mut value = start.clamp(lo, hi);
        let mut points = Vec::with_capacity(steps);
        for k in 0..steps {
            points.push((SimTime::from_nanos(k as u64 * dt.as_nanos()), value));
            let u = unit_f64(mix(seed, k as u64));
            value += (2.0 * u - 1.0) * step;
            // Reflect into [lo, hi].
            if value > hi {
                value = 2.0 * hi - value;
            }
            if value < lo {
                value = 2.0 * lo - value;
            }
            value = value.clamp(lo, hi);
        }
        LoadModel::Trace(PiecewiseConst::new(
            points,
            Some(SimDuration::from_nanos(steps as u64 * dt.as_nanos())),
        ))
    }

    /// Markov on/off process: exponentially distributed dwell times with
    /// means `mean_up`/`mean_down`; availability is 1 when up and
    /// `degraded` when down. Lowered to a cyclic trace spanning `horizon`.
    pub fn markov_on_off(
        seed: u64,
        mean_up: SimDuration,
        mean_down: SimDuration,
        degraded: f64,
        horizon: SimDuration,
    ) -> Self {
        assert!((0.0..=1.0).contains(&degraded));
        assert!(!mean_up.is_zero() && !mean_down.is_zero() && !horizon.is_zero());
        let mut points = Vec::new();
        let mut t = 0u64;
        let mut up = true;
        let mut k = 0u64;
        while t < horizon.as_nanos() {
            points.push((SimTime::from_nanos(t), if up { 1.0 } else { degraded }));
            let mean = if up { mean_up } else { mean_down };
            let dwell = exp_at(seed, k, mean.as_secs_f64()).max(1e-6);
            t = t.saturating_add(SimDuration::from_secs_f64(dwell).as_nanos().max(1));
            up = !up;
            k += 1;
        }
        LoadModel::Trace(PiecewiseConst::new(
            points,
            Some(SimDuration::from_nanos(horizon.as_nanos())),
        ))
    }

    /// Availability from an explicit `(time, level)` trace; the last level
    /// holds forever.
    pub fn trace(points: Vec<(SimTime, f64)>) -> Self {
        LoadModel::Trace(PiecewiseConst::new(points, None))
    }

    /// Availability at time `t`, clamped to `[0, 1]`.
    pub fn availability(&self, t: SimTime) -> f64 {
        let raw = match self {
            LoadModel::Constant { level } => *level,
            LoadModel::Step { before, after, at } => {
                if t < *at {
                    *before
                } else {
                    *after
                }
            }
            LoadModel::SquareWave {
                hi,
                lo,
                period,
                duty,
                phase,
            } => {
                let pos = (t.as_nanos().wrapping_add(phase.as_nanos())) % period.as_nanos();
                let threshold = (period.as_nanos() as f64 * duty) as u64;
                if pos < threshold {
                    *hi
                } else {
                    *lo
                }
            }
            LoadModel::Trace(trace) => trace.value_at(t),
            LoadModel::Overlay { base, windows } => {
                let b = base.availability(t);
                match windows.iter().find(|w| t >= w.from && t < w.to) {
                    Some(w) => b.min(w.cap),
                    None => b,
                }
            }
        };
        raw.clamp(0.0, 1.0)
    }

    /// The next instant strictly after `t` at which availability may
    /// change, or `None` if it is constant from `t` on.
    pub fn next_breakpoint(&self, t: SimTime) -> Option<SimTime> {
        match self {
            LoadModel::Constant { .. } => None,
            LoadModel::Step { at, .. } => (*at > t).then_some(*at),
            LoadModel::SquareWave {
                period,
                duty,
                phase,
                ..
            } => {
                let period_ns = period.as_nanos();
                let shifted = t.as_nanos().wrapping_add(phase.as_nanos());
                let pos = shifted % period_ns;
                let threshold = (period_ns as f64 * duty) as u64;
                let next_local = if pos < threshold {
                    threshold
                } else {
                    period_ns
                };
                Some(SimTime::from_nanos(t.as_nanos() + (next_local - pos)))
            }
            LoadModel::Trace(trace) => trace.next_change(t),
            LoadModel::Overlay { base, windows } => {
                let from_base = base.next_breakpoint(t);
                let from_windows = windows
                    .iter()
                    .flat_map(|w| [w.from, w.to])
                    .filter(|&b| b > t)
                    .min();
                match (from_base, from_windows) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            }
        }
    }

    /// The end of the outage (zero-cap overlay window) covering `t`, if
    /// there is one: availability is 0 on all of `[t, end)` whatever the
    /// base model does. With nested overlays, the latest such end.
    pub(crate) fn outage_end(&self, t: SimTime) -> Option<SimTime> {
        let LoadModel::Overlay { base, windows } = self else {
            return None;
        };
        let own = windows
            .iter()
            .find(|w| w.cap == 0.0 && t >= w.from && t < w.to)
            .map(|w| w.to);
        own.max(base.outage_end(t))
    }

    /// Mean availability over `[from, to)`, integrating across breakpoints.
    pub fn mean_availability(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to > from, "empty interval");
        let mut t = from;
        let mut acc = 0.0;
        while t < to {
            let a = self.availability(t);
            let seg_end = match self.next_breakpoint(t) {
                Some(b) if b < to => b,
                _ => to,
            };
            acc += a * (seg_end - t).as_secs_f64();
            t = seg_end;
        }
        acc / (to - from).as_secs_f64()
    }

    /// Overlays outage windows (availability forced to zero) on this model,
    /// used by fault injection. The base model's own dynamics are preserved
    /// outside — and resume after — the outage windows.
    pub fn with_outages(self, outages: &[(SimTime, SimTime)]) -> Self {
        let windows = outages
            .iter()
            .map(|&(from, to)| OverlayWindow { from, to, cap: 0.0 })
            .collect::<Vec<_>>();
        self.with_windows(windows)
    }

    /// Overlays a single availability-cap window: within `[from, to)` the
    /// availability becomes `min(base, cap)`.
    pub(crate) fn with_cap_window(self, from: SimTime, to: SimTime, cap: f64) -> Self {
        self.with_windows(vec![OverlayWindow { from, to, cap }])
    }

    /// Overlays a set of cap windows on this model.
    ///
    /// # Panics
    /// Panics if windows are empty-intervaled, unsorted or overlapping, or
    /// if a cap lies outside `[0, 1]`.
    fn with_windows(self, windows: Vec<OverlayWindow>) -> Self {
        if windows.is_empty() {
            return self;
        }
        for w in &windows {
            assert!(w.from < w.to, "overlay window must be non-empty");
            assert!((0.0..=1.0).contains(&w.cap), "cap must be in [0,1]");
        }
        for pair in windows.windows(2) {
            assert!(
                pair[0].to <= pair[1].from,
                "overlay windows must be sorted and disjoint"
            );
        }
        // Flatten nested overlays on the same base where possible: if this
        // model is already an overlay and the new windows don't intersect
        // the existing ones we could merge, but correctness never requires
        // it — nesting composes via min() — so keep the simple form.
        LoadModel::Overlay {
            base: Box::new(self),
            windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn constant_has_no_breakpoints() {
        let m = LoadModel::constant(0.7);
        assert_eq!(m.availability(secs(0.0)), 0.7);
        assert_eq!(m.availability(secs(1e6)), 0.7);
        assert_eq!(m.next_breakpoint(secs(5.0)), None);
    }

    #[test]
    fn step_changes_exactly_at_instant() {
        let m = LoadModel::step(1.0, 0.25, secs(10.0));
        assert_eq!(m.availability(secs(9.999)), 1.0);
        assert_eq!(m.availability(secs(10.0)), 0.25);
        assert_eq!(m.next_breakpoint(secs(0.0)), Some(secs(10.0)));
        assert_eq!(m.next_breakpoint(secs(10.0)), None);
    }

    #[test]
    fn square_wave_alternates_with_duty() {
        let m =
            LoadModel::square_wave(1.0, 0.2, SimDuration::from_secs(10), 0.5, SimDuration::ZERO);
        assert_eq!(m.availability(secs(1.0)), 1.0);
        assert_eq!(m.availability(secs(6.0)), 0.2);
        assert_eq!(m.availability(secs(11.0)), 1.0);
        assert_eq!(m.next_breakpoint(secs(1.0)), Some(secs(5.0)));
        assert_eq!(m.next_breakpoint(secs(6.0)), Some(secs(10.0)));
    }

    #[test]
    fn sinusoid_stays_in_bounds_and_cycles() {
        let m = LoadModel::sinusoid(0.6, 0.3, SimDuration::from_secs(20), 16);
        for i in 0..200 {
            let a = m.availability(secs(i as f64 * 0.7));
            assert!((0.0..=1.0).contains(&a));
            assert!((0.25..=0.95).contains(&a), "a={a}");
        }
        // Cyclic: availability one period apart is identical.
        assert_eq!(m.availability(secs(3.0)), m.availability(secs(23.0)));
    }

    #[test]
    fn random_walk_is_bounded_deterministic_and_cyclic() {
        let mk = || {
            LoadModel::random_walk(
                42,
                0.8,
                0.1,
                SimDuration::from_secs(1),
                0.2,
                1.0,
                SimDuration::from_secs(100),
            )
        };
        let m1 = mk();
        let m2 = mk();
        for i in 0..500 {
            let t = secs(i as f64 * 0.37);
            let a = m1.availability(t);
            assert!((0.2..=1.0).contains(&a), "a={a}");
            assert_eq!(a, m2.availability(t), "determinism at {t}");
        }
        assert_eq!(m1.availability(secs(5.0)), m1.availability(secs(105.0)));
    }

    #[test]
    fn markov_alternates_between_one_and_degraded() {
        let m = LoadModel::markov_on_off(
            7,
            SimDuration::from_secs(5),
            SimDuration::from_secs(2),
            0.3,
            SimDuration::from_secs(200),
        );
        let mut seen_up = false;
        let mut seen_down = false;
        for i in 0..400 {
            let a = m.availability(secs(i as f64 * 0.5));
            assert!(a == 1.0 || a == 0.3, "a={a}");
            seen_up |= a == 1.0;
            seen_down |= a == 0.3;
        }
        assert!(seen_up && seen_down);
    }

    #[test]
    fn mean_availability_integrates_step() {
        let m = LoadModel::step(1.0, 0.5, secs(5.0));
        let mean = m.mean_availability(secs(0.0), secs(10.0));
        assert!((mean - 0.75).abs() < 1e-9, "mean={mean}");
    }

    #[test]
    fn outages_force_zero_and_restore() {
        let m = LoadModel::constant(0.9).with_outages(&[(secs(2.0), secs(4.0))]);
        assert_eq!(m.availability(secs(1.0)), 0.9);
        assert_eq!(m.availability(secs(3.0)), 0.0);
        assert_eq!(m.availability(secs(4.0)), 0.9);
    }

    #[test]
    fn outage_overlay_preserves_underlying_breakpoints() {
        let base = LoadModel::step(1.0, 0.4, secs(3.0));
        let m = base.with_outages(&[(secs(1.0), secs(2.0))]);
        assert_eq!(m.availability(secs(0.5)), 1.0);
        assert_eq!(m.availability(secs(1.5)), 0.0);
        assert_eq!(m.availability(secs(2.5)), 1.0);
        assert_eq!(m.availability(secs(3.5)), 0.4);
    }

    #[test]
    fn piecewise_next_change_wraps_cycles() {
        let p = PiecewiseConst::new(
            vec![(SimTime::ZERO, 1.0), (secs(3.0), 0.5)],
            Some(SimDuration::from_secs(10)),
        );
        assert_eq!(p.next_change(secs(4.0)), Some(secs(10.0)));
        assert_eq!(p.next_change(secs(10.5)), Some(secs(13.0)));
        assert_eq!(p.value_at(secs(12.0)), 1.0);
        assert_eq!(p.value_at(secs(13.5)), 0.5);
    }

    /// A seeded trace of `n` irregularly spaced segments, the cyclic
    /// one closing up to 3 s after its last breakpoint.
    fn random_trace(seed: u64, n: usize, cyclic: bool) -> PiecewiseConst {
        let mut rng = crate::rng::Rng64::new(seed);
        let mut at = 0u64;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push((SimTime::from_nanos(at), rng.next_unit()));
            at += 1 + rng.next_range(3_000_000_000) as u64;
        }
        PiecewiseConst::new(points, cyclic.then(|| SimDuration::from_nanos(at)))
    }

    /// Instants around every breakpoint of `trace`, in its first period
    /// and — if it repeats — several periods out.
    fn probes(trace: &PiecewiseConst) -> Vec<SimTime> {
        let last = trace.points.last().expect("non-empty").0.as_nanos();
        let period = trace.cycle.map_or(last + 10, |c| c.as_nanos());
        let mut local = vec![0, last + (period - last) / 2, period - 1];
        for &(start, _) in &trace.points {
            let b = start.as_nanos();
            local.extend([b.saturating_sub(1), b, b + 1]);
        }
        // Whole periods out: the next cycles of a cyclic trace, the
        // flat tail of one that is not.
        let periods_out = [0, 1, 2, 7, 1_000];
        periods_out
            .iter()
            .flat_map(|k| {
                local
                    .iter()
                    .map(move |t| SimTime::from_nanos(k * period + t))
            })
            .collect()
    }

    #[test]
    fn binary_search_next_change_matches_the_linear_scan() {
        for case in 0..48u64 {
            let n = [1, 2, 300][case as usize % 3];
            let cyclic = case % 2 == 0;
            let trace = random_trace(0xB5EA_7C00 + case, n, cyclic);
            for t in probes(&trace) {
                assert_eq!(
                    trace.next_change(t),
                    trace.next_change_linear(t),
                    "case {case}: n={n} cyclic={cyclic} t={t:?}"
                );
            }
        }
    }

    #[test]
    fn next_change_walks_every_segment_of_a_cycle_in_order() {
        for case in 0..12u64 {
            let n = [1, 2, 300][case as usize % 3];
            let trace = random_trace(0x5E6_0000 + case, n, true);
            let cycle = trace.cycle.expect("cyclic").as_nanos();
            // Three periods, hopping breakpoint to breakpoint.
            let mut t = SimTime::ZERO;
            for hop in 0..3 * n {
                let (start, value) = trace.points[hop % n];
                let period = (hop / n) as u64;
                assert_eq!(t.as_nanos(), period * cycle + start.as_nanos());
                assert_eq!(trace.value_at(t), value, "case {case} hop {hop}");
                let next = trace.next_change(t).expect("a cyclic trace always changes");
                assert_eq!(Some(next), trace.next_change_linear(t));
                t = next;
            }
            assert_eq!(t.as_nanos(), 3 * cycle);
        }
        // Without a cycle the walk ends at the last breakpoint.
        let flat = random_trace(9, 300, false);
        let mut t = SimTime::ZERO;
        let mut hops = 0;
        while let Some(next) = flat.next_change(t) {
            hops += 1;
            assert_eq!(next, flat.points[hops].0);
            assert_eq!(flat.value_at(next), flat.points[hops].1);
            t = next;
        }
        assert_eq!(hops, 299);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_trace_panics() {
        let _ = PiecewiseConst::new(vec![(SimTime::ZERO, 1.0), (SimTime::ZERO, 0.5)], None);
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn bad_duty_panics() {
        let _ = LoadModel::square_wave(1.0, 0.5, SimDuration::from_secs(1), 1.5, SimDuration::ZERO);
    }

    #[test]
    fn outage_end_covers_the_window_and_takes_the_latest_nested_end() {
        let m = LoadModel::constant(0.9).with_outages(&[(secs(2.0), secs(4.0))]);
        assert_eq!(m.outage_end(secs(1.0)), None);
        assert_eq!(m.outage_end(secs(2.0)), Some(secs(4.0)));
        assert_eq!(m.outage_end(secs(3.9)), Some(secs(4.0)));
        assert_eq!(m.outage_end(secs(4.0)), None, "the end is exclusive");
        // A partial cap slows the node; it is no outage.
        let capped = LoadModel::free().with_cap_window(secs(0.0), secs(5.0), 0.1);
        assert_eq!(capped.outage_end(secs(1.0)), None);
        assert_eq!(LoadModel::free().outage_end(secs(1.0)), None);
        // An outer outage [3, 6) over the inner [2, 4).
        let nested = m.with_outages(&[(secs(3.0), secs(6.0))]);
        assert_eq!(nested.outage_end(secs(2.5)), Some(secs(4.0)));
        assert_eq!(nested.outage_end(secs(3.5)), Some(secs(6.0)));
        assert_eq!(nested.outage_end(secs(5.0)), Some(secs(6.0)));
        assert_eq!(nested.outage_end(secs(6.0)), None);
    }
}
