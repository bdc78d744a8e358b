//! Virtual nodes: synthetic heterogeneity on one machine.
//!
//! The paper evaluated on a grid of machines with different speeds and
//! fluctuating background load. On one box we reproduce both knobs per
//! *virtual node* (one worker thread each):
//!
//! * **speed** ∈ (0, 1] — a relative slowdown factor. After a stage runs
//!   for `d` wall seconds, the worker sleeps `d·(1/speed − 1)` extra, so
//!   the observable service time matches a proportionally slower machine.
//!   (Real compute cannot be accelerated, hence the ≤ 1 normalisation.)
//! * **load** — a wall-clock [`LoadModel`] schedule; the effective rate is
//!   `speed × availability(t)`, exactly as in the simulator.

use adapipe_gridsim::load::LoadModel;
use adapipe_gridsim::time::SimTime;
use std::time::{Duration, Instant};

/// Availability below this is clamped when computing slowdown sleeps: a
/// wall-clock engine cannot stall a task forever.
pub(crate) const MIN_WALL_AVAILABILITY: f64 = 0.02;

/// One virtual node of the threaded engine.
#[derive(Clone, Debug)]
pub struct VNodeSpec {
    /// Node name for reports.
    pub name: String,
    /// Relative speed in `(0, 1]`; 1.0 = full host speed.
    pub speed: f64,
    /// Background-load schedule against wall time since engine start.
    pub load: LoadModel,
}

impl VNodeSpec {
    /// A full-speed, unloaded virtual node.
    pub fn free(name: impl Into<String>) -> Self {
        VNodeSpec {
            name: name.into(),
            speed: 1.0,
            load: LoadModel::free(),
        }
    }

    /// A node at `speed` with no background load.
    ///
    /// # Panics
    /// Panics unless `0 < speed ≤ 1`.
    pub fn with_speed(name: impl Into<String>, speed: f64) -> Self {
        assert!(
            speed > 0.0 && speed <= 1.0,
            "vnode speed must be in (0,1], got {speed}"
        );
        VNodeSpec {
            name: name.into(),
            speed,
            load: LoadModel::free(),
        }
    }

    /// Attaches a background-load schedule.
    pub fn with_load(mut self, load: LoadModel) -> Self {
        self.load = load;
        self
    }

    /// True when this vnode can never throttle — full speed and a
    /// constant, fully-available load model — so
    /// [`VNodeSpec::slowdown_sleep`] is identically zero and the hot
    /// path may skip the per-item rate lookup entirely.
    pub(crate) fn never_throttles(&self) -> bool {
        self.speed >= 1.0 && matches!(self.load, LoadModel::Constant { level } if level >= 1.0)
    }

    /// Effective rate at wall-offset `t` (clamped availability).
    pub fn effective_rate(&self, t: SimTime) -> f64 {
        self.speed * self.load.availability(t).max(MIN_WALL_AVAILABILITY)
    }

    /// Extra sleep required after `busy` seconds of real compute started
    /// at wall-offset `t`, so the total service time matches this node's
    /// effective rate.
    pub(crate) fn slowdown_sleep(&self, busy: Duration, t: SimTime) -> Duration {
        let rate = self.effective_rate(t);
        debug_assert!(rate > 0.0);
        let factor = (1.0 / rate - 1.0).max(0.0);
        Duration::from_secs_f64(busy.as_secs_f64() * factor)
    }
}

/// Spins the CPU for `d` (busy-wait). The unit of synthetic work in the
/// threaded engine: deterministic duration, real CPU consumption.
pub fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Measures how many spin-loop iterations per second this host sustains —
/// reported in experiment headers so runs on different machines can be
/// compared.
pub fn calibrate_host() -> f64 {
    let start = Instant::now();
    let mut iters: u64 = 0;
    while start.elapsed() < Duration::from_millis(20) {
        for _ in 0..1000 {
            std::hint::spin_loop();
        }
        iters += 1000;
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_node_never_sleeps() {
        let v = VNodeSpec::free("a");
        assert_eq!(
            v.slowdown_sleep(Duration::from_millis(100), SimTime::ZERO),
            Duration::ZERO
        );
        assert_eq!(v.effective_rate(SimTime::ZERO), 1.0);
    }

    #[test]
    fn half_speed_doubles_service_time() {
        let v = VNodeSpec::with_speed("slow", 0.5);
        let sleep = v.slowdown_sleep(Duration::from_millis(100), SimTime::ZERO);
        assert!((sleep.as_secs_f64() - 0.1).abs() < 1e-9, "sleep={sleep:?}");
    }

    #[test]
    fn load_schedule_compounds_with_speed() {
        let v = VNodeSpec::with_speed("busy", 0.5).with_load(LoadModel::constant(0.5));
        // rate = 0.25 → total time = 4 × busy → sleep = 3 × busy.
        let sleep = v.slowdown_sleep(Duration::from_millis(10), SimTime::ZERO);
        assert!((sleep.as_secs_f64() - 0.03).abs() < 1e-9);
    }

    #[test]
    fn zero_availability_is_clamped() {
        let v = VNodeSpec::free("dead").with_load(LoadModel::constant(0.0));
        let rate = v.effective_rate(SimTime::ZERO);
        assert!(rate >= MIN_WALL_AVAILABILITY);
        let sleep = v.slowdown_sleep(Duration::from_millis(1), SimTime::ZERO);
        assert!(sleep < Duration::from_secs(1));
    }

    #[test]
    fn spin_for_takes_at_least_requested_time() {
        let start = Instant::now();
        spin_for(Duration::from_millis(5));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn calibration_reports_positive_rate() {
        assert!(calibrate_host() > 0.0);
    }

    #[test]
    #[should_panic(expected = "speed")]
    fn overspeed_rejected() {
        let _ = VNodeSpec::with_speed("x", 1.5);
    }

    #[test]
    fn only_a_full_speed_always_free_node_never_throttles() {
        assert!(VNodeSpec::free("a").never_throttles());
        assert!(!VNodeSpec::with_speed("slow", 0.5).never_throttles());
        let busy = VNodeSpec::free("busy").with_load(LoadModel::constant(0.5));
        assert!(!busy.never_throttles());
        // A schedule that starts free may still throttle later.
        let step = LoadModel::step(1.0, 0.5, SimTime::from_secs_f64(1.0));
        assert!(!VNodeSpec::free("later").with_load(step).never_throttles());
    }
}
