//! The simulation-backend cluster: any number of concurrent tenant
//! sessions time-sharing one simulated grid, deterministically.
//!
//! There is no arbiter thread here. [`SimCluster::admit`] grants each
//! tenant a *static* share — its quota ceiling — which the tenant's
//! world applies to every service time and sensed rate; the granted
//! ceilings may not oversubscribe the pool. The tenants' worlds
//! interleave through the core's [`SimPool`] merged event clock,
//! earliest event first.
//!
//! Eviction is two-speed, as on the threaded backend:
//! [`SimCluster::evict`] stops new pushes and lets in-flight work
//! drain, [`SimCluster::evict_now`] fails the tenant immediately with a
//! typed `RunError::Evicted`.

use adapipe_core::pipeline::Pipeline;
use adapipe_core::simsession::{attach, SimPool, SimSession, SimTenant};
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::grid::GridSpec;
use adapipe_mapper::share::ShareQuota;
use adapipe_runtime::session::{BuildError, RunConfig, Session, SessionId};

/// One simulated grid shared by many sessions under static shares.
pub struct SimCluster<'g> {
    grid: &'g GridSpec,
    /// Node churn of the shared pool: every tenant's world applies the
    /// same plan, so outages hit all tenants at the same instants.
    faults: FaultPlan,
    pool: SimPool<'g>,
    next_id: u64,
}

impl<'g> SimCluster<'g> {
    /// A cluster over `grid` whose every tenant runs under `faults`.
    pub fn new(grid: &'g GridSpec, faults: FaultPlan) -> Self {
        SimCluster {
            grid,
            faults,
            pool: SimPool::new(),
            next_id: 0,
        }
    }

    /// The shared grid.
    pub fn grid(&self) -> &'g GridSpec {
        self.grid
    }

    /// Admits `pipeline` as a new tenant running `session` under `cfg`.
    /// The pool supplies what it owns: the tenant's id (next in
    /// admission order), its capacity share (`quota.max_share`, granted
    /// statically), and the fault plan, which replaces `cfg.faults`.
    ///
    /// # Errors
    /// [`BuildError::PoolOversubscribed`] when the share would exceed
    /// what the live tenants' grants leave of the pool.
    pub fn admit<I, O>(
        &mut self,
        pipeline: Pipeline<I, O>,
        session: &Session,
        mut cfg: RunConfig,
        quota: ShareQuota,
    ) -> Result<SimSession<'g, I, O>, BuildError> {
        let share = quota.max_share;
        let taken: f64 = self.pool.tenants().iter().map(SimTenant::share).sum();
        if share > 1.0 - taken + 1e-9 {
            return Err(BuildError::PoolOversubscribed {
                requested: share,
                available: (1.0 - taken).max(0.0),
            });
        }
        cfg.faults = self.faults.clone();
        let id = SessionId(self.next_id);
        self.next_id += 1;
        Ok(attach(
            &self.pool, self.grid, pipeline, session, &cfg, id, share,
        ))
    }

    fn tenant(&self, session: SessionId) -> Option<SimTenant<'g>> {
        self.pool
            .tenants()
            .into_iter()
            .find(|t| t.session() == session)
    }

    /// Live tenants, in admission order.
    pub fn sessions(&self) -> Vec<SessionId> {
        self.pool.tenants().iter().map(SimTenant::session).collect()
    }

    /// The static share granted to `session`, if it is a live tenant.
    pub fn share_of(&self, session: SessionId) -> Option<f64> {
        self.tenant(session).map(|t| t.share())
    }

    /// Graceful eviction: the session stops admitting new pushes
    /// (`RunError::Evicted`) but its in-flight items drain normally.
    /// Returns false if the session is not a live tenant.
    pub fn evict(&self, session: SessionId) -> bool {
        self.tenant(session).map(|t| t.begin_eviction()).is_some()
    }

    /// Forced eviction: the session fails immediately with
    /// `RunError::Evicted`, its report comes back truncated, and its
    /// share returns to the pool. Returns false if the session is not a
    /// live tenant.
    pub fn evict_now(&self, session: SessionId) -> bool {
        self.tenant(session).map(|t| t.evict_now()).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_core::pipeline::PipelineBuilder;
    use adapipe_core::spec::StageSpec;
    use adapipe_gridsim::grid::testbed_small3;
    use adapipe_runtime::session::LiveSession;

    fn inc() -> Pipeline<u64, u64> {
        PipelineBuilder::<u64>::new()
            .stage(StageSpec::balanced("inc", 1.0, 0), |x: u64| x + 1)
            .build()
    }

    /// Admits [`inc`] under the defaults with `max_share` as its ceiling.
    fn admit<'g>(
        cluster: &mut SimCluster<'g>,
        max_share: f64,
    ) -> Result<SimSession<'g, u64, u64>, BuildError> {
        cluster.admit(
            inc(),
            &Session::default(),
            RunConfig::default(),
            ShareQuota::bounded(0.0, max_share),
        )
    }

    #[test]
    fn static_shares_are_granted_in_admission_order_and_bounded_by_the_pool() {
        let grid = testbed_small3();
        let mut cluster = SimCluster::new(&grid, FaultPlan::new());
        let mut a = admit(&mut cluster, 0.5).expect("half the pool is free");
        let b = admit(&mut cluster, 0.5).expect("the other half too");
        let (ida, idb) = (a.session_id(), b.session_id());
        assert_eq!(cluster.sessions(), vec![ida, idb]);
        assert_eq!(cluster.share_of(idb), Some(0.5));
        assert!(matches!(
            admit(&mut cluster, 0.25),
            Err(BuildError::PoolOversubscribed { .. })
        ));

        // A finished tenant's share returns to the pool.
        a.push(1).unwrap();
        let (outputs, report) = a.drain().into_parts();
        assert_eq!(outputs, vec![2]);
        assert!(!report.truncated);
        assert_eq!(cluster.sessions(), vec![idb]);
        assert!(!cluster.evict(ida), "no longer a tenant");
        let _c = admit(&mut cluster, 0.5).expect("A's half is free again");

        // Forced eviction frees a share at once.
        assert!(cluster.evict_now(idb));
        assert!(!cluster.evict_now(idb), "already gone");
        assert_eq!(cluster.share_of(idb), None);
        drop(b);
    }
}
