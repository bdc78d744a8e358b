//! The pool's tenants: the registry every attached session joins, and
//! the capacity arbiter that re-divides a cluster's pool between them.
//!
//! Every session attached to a [`Pool`] ([`crate::exec::attach`]) is
//! registered here with its [`ShareQuota`], and the pool is re-divided
//! at once by the static [`fair_shares`] split. A pool launched with an
//! arbitration window runs the arbiter thread, which every window:
//!
//! 1. senses each live tenant's window signal — completed delta and
//!    inbox backlog ([`TenantSignal`]);
//! 2. derives demands and runs weighted progressive filling
//!    ([`window_demands`], [`arbitrate`]);
//! 3. grants the new shares, which both re-weight the pool inboxes'
//!    fair-queueing lanes (enforcement) and re-scale each tenant's
//!    planner view of the pool (planning).
//!
//! A pool launched without one — [`crate::exec::spawn`]'s pool of one —
//! runs no arbiter: its single tenant holds the whole pool.
//!
//! A tenant leaves the registry once it is done (drained, aborted,
//! dropped, failed or force-evicted), and every read of the registry
//! skips it from that instant on.

use crate::pool::Pool;
use crate::tenant::Shared;
use adapipe_mapper::share::{arbitrate, fair_shares, window_demands, ShareQuota, TenantSignal};
use adapipe_runtime::session::SessionId;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

/// One registered tenant: its shared state, its capacity contract, and
/// the arbiter's per-window sensing state.
pub(crate) struct TenantEntry {
    shared: Arc<Shared>,
    quota: ShareQuota,
    /// Completed count at the previous window (progress delta sensing).
    last_completed: u64,
    /// Consecutive windows with no progress and no backlog.
    idle_windows: u32,
}

impl TenantEntry {
    fn session(&self) -> SessionId {
        SessionId(self.shared.id)
    }

    /// Senses this tenant's window signal and updates the idle counter.
    fn sense(&mut self, pool: &Pool) -> TenantSignal {
        let completed = self.shared.completed.load(Ordering::Relaxed);
        let progressed = completed > self.last_completed;
        self.last_completed = completed;
        let backlog = pool.queued_for(self.session());
        if progressed || backlog > 0 {
            self.idle_windows = 0;
        } else {
            self.idle_windows = self.idle_windows.saturating_add(1);
        }
        TenantSignal {
            backlog,
            progressed,
            idle_windows: self.idle_windows,
            share: self.shared.share(),
        }
    }
}

/// One arbitration window: demands from the signals, then weighted
/// progressive filling under the quotas. Returns the new share per
/// tenant, aligned with the input order.
fn arbitrate_window(signals: &[TenantSignal], quotas: &[ShareQuota]) -> Vec<f64> {
    arbitrate(&window_demands(signals), quotas)
}

/// The shortest arbitration window the arbiter keeps: a shorter one
/// (`ClusterConfig::window` is not validated) would have it re-lock
/// the registry and re-arbitrate back to back.
const MIN_WINDOW: Duration = Duration::from_micros(500);

impl Pool {
    /// The registry of live tenants: done tenants leave it here, before
    /// the caller sees it.
    fn tenants(&self) -> MutexGuard<'_, Vec<TenantEntry>> {
        let mut reg = self.registry.lock().expect("pool registry poisoned");
        reg.retain(|t| !t.shared.done.load(Ordering::SeqCst));
        reg
    }

    /// Grants every tenant its share of the static [`fair_shares`]
    /// split, as if every tenant were saturated.
    fn fair_split(reg: &[TenantEntry]) {
        let quotas: Vec<ShareQuota> = reg.iter().map(|t| t.quota).collect();
        for (t, s) in reg.iter().zip(fair_shares(&quotas)) {
            t.shared.set_share(s);
        }
    }

    /// Registers an attached tenant under `quota` and immediately
    /// re-divides the pool by the static fair split, so the newcomer
    /// holds real capacity before its first sensing window elapses.
    ///
    /// # Panics
    /// Panics if the quota is invalid ([`ShareQuota::is_valid`]).
    pub(crate) fn register(&self, shared: Arc<Shared>, quota: ShareQuota) {
        let mut reg = self.tenants();
        let last_completed = shared.completed.load(Ordering::Relaxed);
        reg.push(TenantEntry {
            shared,
            quota,
            last_completed,
            idle_windows: 0,
        });
        Self::fair_split(&reg);
    }

    /// Drops the registry's hold on tenants that are done (a detaching
    /// tenant calls this, so a pool never keeps its tenants alive).
    pub(crate) fn prune(&self) {
        drop(self.tenants());
    }

    /// Live tenants, in registration order.
    pub fn sessions(&self) -> Vec<SessionId> {
        self.tenants().iter().map(TenantEntry::session).collect()
    }

    /// Runs `f` on the live tenant `session`, if there is one.
    fn with_tenant<T>(&self, session: SessionId, f: impl FnOnce(&Shared) -> T) -> Option<T> {
        let reg = self.tenants();
        reg.iter()
            .find(|t| t.session() == session)
            .map(|t| f(&t.shared))
    }

    /// The share currently granted to `session`, if it is a live tenant.
    pub fn share_of(&self, session: SessionId) -> Option<f64> {
        self.with_tenant(session, Shared::share)
    }

    /// Graceful eviction: the session stops admitting new pushes
    /// (`RunError::Evicted`) but its in-flight items drain normally —
    /// the owner's `drain()` completes with a full report. Returns
    /// false if the session is not a live tenant.
    pub fn evict(&self, session: SessionId) -> bool {
        self.with_tenant(session, |t| t.evicting.store(true, Ordering::SeqCst))
            .is_some()
    }

    /// Forced eviction (pool shrink, misbehaving tenant): the session
    /// fails immediately with `RunError::Evicted`, in-flight items are
    /// dropped, its report comes back truncated — and the survivors are
    /// re-granted the pool by the static fair split. Returns false if
    /// the session is not a live tenant.
    pub fn evict_now(&self, session: SessionId) -> bool {
        let mut reg = self.tenants();
        let Some(pos) = reg.iter().position(|t| t.session() == session) else {
            return false;
        };
        reg.remove(pos).shared.evict_now();
        Self::fair_split(&reg);
        true
    }

    /// The arbiter thread: re-divides capacity every `window` until the
    /// pool shuts down (at most every [`MIN_WINDOW`]). It sleeps on the
    /// pool's bell until the next window's deadline, so windows keep to
    /// the wall clock and shutdown wakes it at once whatever the window.
    pub(crate) fn arbiter_loop(&self, window: Duration) {
        let window = window.max(MIN_WINDOW);
        let mut deadline = Instant::now() + window;
        while !self
            .bell
            .wait(Some(deadline), || self.done.load(Ordering::SeqCst))
        {
            // A wake-up late by a whole window skips the missed one
            // rather than sensing twice back to back.
            deadline += window;
            let now = Instant::now();
            if deadline <= now {
                deadline = now + window;
            }
            let mut reg = self.tenants();
            let signals: Vec<TenantSignal> = reg.iter_mut().map(|t| t.sense(self)).collect();
            let quotas: Vec<ShareQuota> = reg.iter().map(|t| t.quota).collect();
            let shares = arbitrate_window(&signals, &quotas);
            for (t, &s) in reg.iter().zip(&shares) {
                // An idled-out tenant's grant is released to the
                // others, but its own lane keeps a minimal weight
                // (`set_share` clamps) so a late burst is admitted and
                // re-sensed next window.
                t.shared.set_share(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::attach;
    use crate::vnode::{spin_for, VNodeSpec};
    use adapipe_core::pipeline::{Pipeline, PipelineBuilder};
    use adapipe_core::spec::StageSpec;
    use adapipe_gridsim::fault::FaultPlan;
    use adapipe_mapper::share::IDLE_GRACE;
    use adapipe_runtime::session::{LiveSession, RunConfig, Session};

    fn free_nodes(n: usize) -> Vec<VNodeSpec> {
        (0..n).map(|i| VNodeSpec::free(format!("v{i}"))).collect()
    }

    fn spin_pipeline(tag: &str, ms: u64) -> Pipeline<u64, u64> {
        PipelineBuilder::<u64>::new()
            .stage(
                StageSpec::balanced(tag, ms as f64 / 1000.0, 8),
                move |x: u64| {
                    spin_for(Duration::from_millis(ms));
                    x
                },
            )
            .build()
    }

    #[test]
    fn arbiter_splits_capacity_by_weight_under_contention() {
        let pool = Pool::launch(
            free_nodes(1),
            FaultPlan::new(),
            Some(Duration::from_millis(20)),
        );
        let (fixed, cfg) = (Session::default(), RunConfig::default());
        let mut a = attach(
            &pool,
            spin_pipeline("a", 1),
            &fixed,
            &cfg,
            ShareQuota::weighted(3.0),
        );
        let mut b = attach(
            &pool,
            spin_pipeline("b", 1),
            &fixed,
            &cfg,
            ShareQuota::weighted(1.0),
        );
        // Registration already applies the static fair split.
        assert!((pool.share_of(a.session_id()).unwrap() - 0.75).abs() < 1e-9);
        assert!((pool.share_of(b.session_id()).unwrap() - 0.25).abs() < 1e-9);
        // Keep both backlogged across several windows: the dynamic
        // arbiter must hold the weighted split.
        for i in 0..200u64 {
            a.push(i).unwrap();
            b.push(i).unwrap();
        }
        std::thread::sleep(Duration::from_millis(80));
        assert!((pool.share_of(a.session_id()).unwrap() - 0.75).abs() < 0.01);
        assert!((pool.share_of(b.session_id()).unwrap() - 0.25).abs() < 0.01);
        let (ra, rb) = (a.drain(), b.drain());
        assert_eq!(ra.outputs.len(), 200);
        assert_eq!(rb.outputs.len(), 200);
        pool.shutdown();
    }

    #[test]
    fn finished_tenant_releases_its_share_to_the_survivors() {
        let pool = Pool::launch(
            free_nodes(1),
            FaultPlan::new(),
            Some(Duration::from_millis(10)),
        );
        let (fixed, cfg) = (Session::default(), RunConfig::default());
        let quota = ShareQuota::default();
        let mut a = attach(&pool, spin_pipeline("a", 1), &fixed, &cfg, quota);
        let mut b = attach(&pool, spin_pipeline("b", 1), &fixed, &cfg, quota);
        let b_id = b.session_id();
        for i in 0..50u64 {
            a.push(i).unwrap();
        }
        for i in 0..400u64 {
            b.push(i).unwrap();
        }
        // A finishes and detaches; B stays backlogged. Within a few
        // windows B must hold the whole pool again.
        let ra = a.drain();
        assert_eq!(ra.outputs.len(), 50);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let share = pool.share_of(b_id).unwrap();
            if (share - 1.0).abs() < 1e-6 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "B never reclaimed the pool (share {share})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.sessions(), vec![b_id]);
        let rb = b.drain();
        assert_eq!(rb.outputs.len(), 400);
        pool.shutdown();
    }

    #[test]
    fn evict_now_removes_the_tenant_and_rebalances() {
        let pool = Pool::launch(
            free_nodes(1),
            FaultPlan::new(),
            Some(Duration::from_millis(500)), // effectively no dynamic window
        );
        let (fixed, cfg) = (Session::default(), RunConfig::default());
        let quota = ShareQuota::default();
        let mut keep = attach(&pool, spin_pipeline("k", 1), &fixed, &cfg, quota);
        let mut goner = attach(&pool, spin_pipeline("g", 1), &fixed, &cfg, quota);
        for i in 0..200u64 {
            goner.push(i).unwrap();
        }
        assert!(pool.evict_now(goner.session_id()));
        assert!(!pool.evict_now(goner.session_id()), "already gone");
        // The survivor is immediately re-granted the whole pool.
        assert!((pool.share_of(keep.session_id()).unwrap() - 1.0).abs() < 1e-9);
        for i in 0..30u64 {
            keep.push(i).unwrap();
        }
        let rg = goner.drain();
        assert!(rg.report.truncated, "evicted tenant reports truncation");
        let rk = keep.drain();
        assert_eq!(rk.outputs.len(), 30, "survivor unaffected");
        pool.shutdown();
    }

    #[test]
    fn a_zero_window_arbitrates_no_faster_than_the_floor() {
        let launched = Instant::now();
        let pool = Pool::launch(free_nodes(1), FaultPlan::new(), Some(Duration::ZERO));
        let (fixed, cfg) = (Session::default(), RunConfig::default());
        let idle = attach(
            &pool,
            spin_pipeline("i", 0),
            &fixed,
            &cfg,
            ShareQuota::default(),
        );
        // An idle tenant's grant is released at its IDLE_GRACE-th
        // window, and window k ends no sooner than k floors after
        // launch.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (pool.share_of(idle.session_id()).unwrap() - 1.0).abs() < 1e-9 {
            assert!(Instant::now() < deadline, "the arbiter never ran");
            std::thread::yield_now();
        }
        assert!(
            launched.elapsed() >= MIN_WINDOW * IDLE_GRACE,
            "released after {:?}: windows shorter than {MIN_WINDOW:?}",
            launched.elapsed()
        );
        drop(idle.drain());
        pool.shutdown();
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    fn sig(backlog: u64, progressed: bool, idle: u32, share: f64) -> TenantSignal {
        TenantSignal {
            backlog,
            progressed,
            idle_windows: idle,
            share,
        }
    }

    #[test]
    fn backlogged_tenants_split_the_pool_by_weight() {
        let signals = [sig(100, true, 0, 0.5), sig(100, true, 0, 0.5)];
        let quotas = [ShareQuota::weighted(3.0), ShareQuota::weighted(1.0)];
        let s = arbitrate_window(&signals, &quotas);
        assert!(close(s[0], 0.75) && close(s[1], 0.25), "{s:?}");
    }

    #[test]
    fn keeping_up_tenant_holds_its_grant_against_a_spike() {
        // Tenant 0 keeps up on 0.4; tenant 1 has a huge backlog. The
        // spike takes the surplus but never squeezes the live tenant.
        let signals = [sig(0, true, 0, 0.4), sig(10_000, true, 0, 0.6)];
        let quotas = [ShareQuota::default(), ShareQuota::default()];
        let s = arbitrate_window(&signals, &quotas);
        assert!(close(s[0], 0.4), "{s:?}");
        assert!(close(s[1], 0.6), "{s:?}");
    }

    #[test]
    fn briefly_idle_tenant_keeps_its_share_through_the_grace() {
        let signals = [
            sig(0, false, IDLE_GRACE - 1, 0.5),
            sig(10_000, true, 0, 0.5),
        ];
        let quotas = [ShareQuota::default(), ShareQuota::default()];
        let s = arbitrate_window(&signals, &quotas);
        assert!(close(s[0], 0.5), "{s:?}");
    }

    #[test]
    fn long_idle_tenant_releases_everything() {
        let signals = [sig(0, false, IDLE_GRACE, 0.5), sig(10_000, true, 0, 0.5)];
        // Even a guaranteed floor is released once truly idle.
        let quotas = [ShareQuota::bounded(0.4, 1.0), ShareQuota::default()];
        let s = arbitrate_window(&signals, &quotas);
        assert!(close(s[0], 0.0) && close(s[1], 1.0), "{s:?}");
    }

    #[test]
    fn floor_shields_a_backlogged_tenant_from_a_heavy_peer() {
        let signals = [sig(50, true, 0, 0.5), sig(50, true, 0, 0.5)];
        let quotas = [ShareQuota::bounded(0.3, 1.0), ShareQuota::weighted(100.0)];
        let s = arbitrate_window(&signals, &quotas);
        assert!(s[0] >= 0.3 - 1e-9, "{s:?}");
    }
}
