//! The threaded-backend cluster: one shared worker [`Pool`] serving any
//! number of concurrent tenant sessions, with a background arbiter
//! re-dividing capacity every sensing window.
//!
//! [`ThreadCluster`] owns the pool. Sessions are attached through the
//! engine's `attach` (the facade does this) and *registered* here with
//! their [`ShareQuota`]; from then on the arbiter thread:
//!
//! 1. prunes finished tenants from the registry;
//! 2. senses each live tenant's window signal — completed delta and
//!    inbox backlog ([`arbiter::TenantSignal`]);
//! 3. derives demands and runs weighted progressive filling
//!    ([`arbiter::arbitrate_window`]);
//! 4. pushes the new shares into the tenants' [`TenantHandle`]s, which
//!    both re-weights the pool inboxes' fair-queueing lanes
//!    (enforcement) and re-scales each tenant's planner view of the
//!    pool (planning).
//!
//! Eviction is two-speed: [`ThreadCluster::evict`] stops new pushes and
//! lets in-flight work drain (the session's `drain()` then completes
//! normally), while [`ThreadCluster::evict_now`] tears the tenant down
//! immediately with a typed `RunError::Evicted`.

use crate::arbiter::{self, TenantSignal};
use adapipe_engine::exec::{Pool, TenantHandle};
use adapipe_engine::vnode::VNodeSpec;
use adapipe_gridsim::fault::FaultPlan;
use adapipe_mapper::share::{fair_shares, ShareQuota};
use adapipe_runtime::session::SessionId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One registered tenant: its live handle, its capacity contract, and
/// the arbiter's per-window sensing state.
struct TenantEntry {
    handle: TenantHandle,
    quota: ShareQuota,
    /// Completed count at the previous window (progress delta sensing).
    last_completed: u64,
    /// Consecutive windows with no progress and no backlog.
    idle_windows: u32,
}

impl TenantEntry {
    /// Senses this tenant's window signal and updates the idle counter.
    fn sense(&mut self, pool: &Pool) -> TenantSignal {
        let completed = self.handle.completed();
        let progressed = completed > self.last_completed;
        self.last_completed = completed;
        let backlog = pool.queued_for(self.handle.session());
        if progressed || backlog > 0 {
            self.idle_windows = 0;
        } else {
            self.idle_windows = self.idle_windows.saturating_add(1);
        }
        TenantSignal {
            backlog,
            progressed,
            idle_windows: self.idle_windows,
            share: self.handle.share(),
        }
    }
}

/// A shared worker pool plus the cross-tenant capacity arbiter. The
/// cluster outlives its sessions: dropping (or
/// [`ThreadCluster::shutdown`]-ing) it stops the arbiter and the pool's
/// worker threads.
pub struct ThreadCluster {
    pool: Arc<Pool>,
    registry: Arc<Mutex<Vec<TenantEntry>>>,
    stop: Arc<AtomicBool>,
    arbiter: Option<JoinHandle<()>>,
}

impl ThreadCluster {
    /// Launches the shared pool (one worker thread per vnode, with the
    /// pool-level fault plan applied once) and the arbiter thread
    /// re-dividing capacity every `window`.
    pub fn launch(vnodes: Vec<VNodeSpec>, faults: FaultPlan, window: Duration) -> ThreadCluster {
        let pool = Pool::launch(vnodes, faults);
        let registry: Arc<Mutex<Vec<TenantEntry>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let arbiter = {
            let pool = Arc::clone(&pool);
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Sleep in small slices so shutdown is prompt even
                // under a long window.
                let slice = window
                    .min(Duration::from_millis(10))
                    .max(Duration::from_micros(500));
                let mut elapsed = Duration::ZERO;
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed < window {
                        continue;
                    }
                    elapsed = Duration::ZERO;
                    let mut reg = registry.lock().expect("cluster registry poisoned");
                    reg.retain(|t| !t.handle.is_done());
                    if reg.is_empty() {
                        continue;
                    }
                    let signals: Vec<TenantSignal> =
                        reg.iter_mut().map(|t| t.sense(&pool)).collect();
                    let quotas: Vec<ShareQuota> = reg.iter().map(|t| t.quota).collect();
                    let shares = arbiter::arbitrate_window(&signals, &quotas);
                    for (t, &s) in reg.iter().zip(&shares) {
                        // An idled-out tenant's grant is released to the
                        // others, but its own lane keeps a minimal
                        // weight (set_share clamps) so a late burst is
                        // admitted and re-sensed next window.
                        t.handle.set_share(s);
                    }
                }
            })
        };
        ThreadCluster {
            pool,
            registry,
            stop,
            arbiter: Some(arbiter),
        }
    }

    /// The shared worker pool (the facade attaches sessions to it).
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Registers an attached session under `quota` and immediately
    /// re-arbitrates as if every tenant were saturated (the static
    /// [`fair_shares`] split), so the newcomer holds real capacity
    /// before its first sensing window elapses.
    ///
    /// # Panics
    /// Panics if the quota is invalid ([`ShareQuota::is_valid`]).
    pub fn register(&self, handle: TenantHandle, quota: ShareQuota) {
        assert!(
            quota.is_valid(),
            "invalid quota for session {}: {quota:?}",
            handle.session()
        );
        let mut reg = self.registry.lock().expect("cluster registry poisoned");
        reg.retain(|t| !t.handle.is_done());
        let last_completed = handle.completed();
        reg.push(TenantEntry {
            handle,
            quota,
            last_completed,
            idle_windows: 0,
        });
        let quotas: Vec<ShareQuota> = reg.iter().map(|t| t.quota).collect();
        for (t, s) in reg.iter().zip(fair_shares(&quotas)) {
            t.handle.set_share(s);
        }
    }

    /// Live registered sessions, in registration order.
    pub fn sessions(&self) -> Vec<SessionId> {
        let reg = self.registry.lock().expect("cluster registry poisoned");
        reg.iter()
            .filter(|t| !t.handle.is_done())
            .map(|t| t.handle.session())
            .collect()
    }

    /// The share currently granted to `session`, if registered.
    pub fn share_of(&self, session: SessionId) -> Option<f64> {
        let reg = self.registry.lock().expect("cluster registry poisoned");
        reg.iter()
            .find(|t| t.handle.session() == session)
            .map(|t| t.handle.share())
    }

    /// Graceful eviction: the session stops admitting new pushes
    /// (`RunError::Evicted`) but its in-flight items drain normally —
    /// the owner's `drain()` completes with a full report. Returns
    /// false if the session is not registered.
    pub fn evict(&self, session: SessionId) -> bool {
        let reg = self.registry.lock().expect("cluster registry poisoned");
        match reg.iter().find(|t| t.handle.session() == session) {
            Some(t) => {
                t.handle.begin_eviction();
                true
            }
            None => false,
        }
    }

    /// Forced eviction (pool shrink, misbehaving tenant): the session
    /// fails immediately with `RunError::Evicted`, in-flight items are
    /// dropped, its report comes back truncated — and co-tenants are
    /// untouched. Returns false if the session is not registered.
    pub fn evict_now(&self, session: SessionId) -> bool {
        let mut reg = self.registry.lock().expect("cluster registry poisoned");
        let Some(pos) = reg.iter().position(|t| t.handle.session() == session) else {
            return false;
        };
        let entry = reg.remove(pos);
        entry.handle.evict_now();
        let quotas: Vec<ShareQuota> = reg.iter().map(|t| t.quota).collect();
        for (t, s) in reg.iter().zip(fair_shares(&quotas)) {
            t.handle.set_share(s);
        }
        true
    }

    /// Stops the arbiter and the pool's worker threads. Sessions still
    /// attached unwind as evicted (their teardown observes the pool
    /// going down); drain sessions first for clean reports.
    pub fn shutdown(mut self) {
        self.stop_arbiter();
        self.pool.shutdown();
    }

    fn stop_arbiter(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.arbiter.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadCluster {
    fn drop(&mut self) {
        self.stop_arbiter();
        self.pool.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_core::pipeline::PipelineBuilder;
    use adapipe_engine::exec::attach;
    use adapipe_engine::vnode::spin_for;
    use adapipe_runtime::session::{LiveSession, RunConfig, Session};

    fn free_nodes(n: usize) -> Vec<VNodeSpec> {
        (0..n).map(|i| VNodeSpec::free(format!("v{i}"))).collect()
    }

    fn spin_pipeline(tag: &str, ms: u64) -> adapipe_core::pipeline::Pipeline<u64, u64> {
        PipelineBuilder::<u64>::new()
            .stage(
                adapipe_core::spec::StageSpec::balanced(tag, ms as f64 / 1000.0, 8),
                move |x: u64| {
                    spin_for(Duration::from_millis(ms));
                    x
                },
            )
            .build()
    }

    #[test]
    fn arbiter_splits_capacity_by_weight_under_contention() {
        let cluster =
            ThreadCluster::launch(free_nodes(1), FaultPlan::new(), Duration::from_millis(20));
        let (fixed, cfg) = (Session::default(), RunConfig::default());
        let mut a = attach(cluster.pool(), spin_pipeline("a", 1), &fixed, &cfg, false);
        let mut b = attach(cluster.pool(), spin_pipeline("b", 1), &fixed, &cfg, false);
        cluster.register(a.tenant_handle(), ShareQuota::weighted(3.0));
        cluster.register(b.tenant_handle(), ShareQuota::weighted(1.0));
        // Registration already applies the static fair split.
        assert!((cluster.share_of(a.session_id()).unwrap() - 0.75).abs() < 1e-9);
        assert!((cluster.share_of(b.session_id()).unwrap() - 0.25).abs() < 1e-9);
        // Keep both backlogged across several windows: the dynamic
        // arbiter must hold the weighted split.
        for i in 0..200u64 {
            a.push(i).unwrap();
            b.push(i).unwrap();
        }
        std::thread::sleep(Duration::from_millis(80));
        assert!((cluster.share_of(a.session_id()).unwrap() - 0.75).abs() < 0.01);
        assert!((cluster.share_of(b.session_id()).unwrap() - 0.25).abs() < 0.01);
        let (ra, rb) = (a.drain(), b.drain());
        assert_eq!(ra.outputs.len(), 200);
        assert_eq!(rb.outputs.len(), 200);
        cluster.shutdown();
    }

    #[test]
    fn finished_tenant_releases_its_share_to_the_survivors() {
        let cluster =
            ThreadCluster::launch(free_nodes(1), FaultPlan::new(), Duration::from_millis(10));
        let (fixed, cfg) = (Session::default(), RunConfig::default());
        let mut a = attach(cluster.pool(), spin_pipeline("a", 1), &fixed, &cfg, false);
        let mut b = attach(cluster.pool(), spin_pipeline("b", 1), &fixed, &cfg, false);
        cluster.register(a.tenant_handle(), ShareQuota::default());
        cluster.register(b.tenant_handle(), ShareQuota::default());
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
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let share = cluster.share_of(b_id).unwrap();
            if (share - 1.0).abs() < 1e-6 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "B never reclaimed the pool (share {share})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(cluster.sessions(), vec![b_id]);
        let rb = b.drain();
        assert_eq!(rb.outputs.len(), 400);
        cluster.shutdown();
    }

    #[test]
    fn evict_now_removes_the_tenant_and_rebalances() {
        let cluster = ThreadCluster::launch(
            free_nodes(1),
            FaultPlan::new(),
            Duration::from_millis(500), // effectively no dynamic window
        );
        let (fixed, cfg) = (Session::default(), RunConfig::default());
        let mut keep = attach(cluster.pool(), spin_pipeline("k", 1), &fixed, &cfg, false);
        let mut goner = attach(cluster.pool(), spin_pipeline("g", 1), &fixed, &cfg, false);
        cluster.register(keep.tenant_handle(), ShareQuota::default());
        cluster.register(goner.tenant_handle(), ShareQuota::default());
        for i in 0..200u64 {
            goner.push(i).unwrap();
        }
        assert!(cluster.evict_now(goner.session_id()));
        assert!(!cluster.evict_now(goner.session_id()), "already gone");
        // The survivor is immediately re-granted the whole pool.
        assert!((cluster.share_of(keep.session_id()).unwrap() - 1.0).abs() < 1e-9);
        for i in 0..30u64 {
            keep.push(i).unwrap();
        }
        let rg = goner.drain();
        assert!(rg.report.truncated, "evicted tenant reports truncation");
        let rk = keep.drain();
        assert_eq!(rk.outputs.len(), 30, "survivor unaffected");
        cluster.shutdown();
    }
}
