//! The worker pool: one thread per virtual node, their inboxes, node
//! health and the wall-clock zero — launch, health, shutdown. What a
//! worker thread does is in `worker`; what the pool's threads share
//! about one tenant is in `tenant`; the pool's tenant registry and a
//! cluster's capacity arbiter are in `arbiter`.

use crate::arbiter::TenantEntry;
use crate::inbox::{Ctrl, Inbox};
use crate::vnode::VNodeSpec;
use crate::worker::worker_loop;
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::SimTime;
use adapipe_runtime::session::SessionId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The shared node pool: worker threads, their inboxes, node health and
/// the tenant registry — everything that outlives any single pipeline
/// session. One `Pool` serves any number of concurrent tenant sessions;
/// the single-session entry point [`crate::exec::spawn`] simply
/// launches a pool of one tenant and shuts it down at drain.
pub struct Pool {
    /// The virtual nodes (load schedules already rewritten for the
    /// pool-wide fault plan).
    pub(crate) vnodes: Vec<VNodeSpec>,
    /// Pool-wide scheduled faults (times are wall offsets from launch).
    pub(crate) faults: FaultPlan,
    pub(crate) inboxes: Vec<Inbox>,
    /// Wall-clock zero for every tenant admitted to this pool.
    pub(crate) epoch: Instant,
    /// Raised once by [`Pool::shutdown`]: the arbiter and the workers
    /// exit, stray work is discarded, teardown ack-waits stop spinning.
    pub(crate) done: AtomicBool,
    /// Node down flags, shared with every tenant's routing table
    /// (`RoutingTable::with_shared_health`): one tenant's fault tracker
    /// marking a node down excludes it for all tenants.
    pub(crate) health: Arc<Vec<AtomicBool>>,
    /// One worker thread per vnode, then a cluster's arbiter thread.
    threads: Mutex<Vec<JoinHandle<()>>>,
    pub(crate) next_session: AtomicU64,
    /// The attached tenants, registration order (see `arbiter`).
    pub(crate) registry: Mutex<Vec<TenantEntry>>,
}

impl Pool {
    /// Launches the pool: one worker thread per vnode, ready to serve
    /// sessions attached with [`crate::exec::attach`]. `faults` applies
    /// pool-wide (vnode load schedules are rewritten here once). With
    /// `window`, the arbiter thread re-divides capacity between the
    /// tenants every window; without, the tenants keep the shares they
    /// were registered with.
    pub fn launch(
        vnodes: Vec<VNodeSpec>,
        faults: FaultPlan,
        window: Option<Duration>,
    ) -> Arc<Pool> {
        assert!(!vnodes.is_empty(), "pool needs at least one vnode");
        let vnodes: Vec<VNodeSpec> = if faults.is_empty() {
            vnodes
        } else {
            vnodes
                .into_iter()
                .enumerate()
                .map(|(i, mut v)| {
                    v.load = faults.rewrite_load(NodeId(i), v.load);
                    v
                })
                .collect()
        };
        let np = vnodes.len();
        let pool = Arc::new(Pool {
            vnodes,
            faults,
            inboxes: (0..np).map(|_| Inbox::new()).collect(),
            epoch: Instant::now(),
            done: AtomicBool::new(false),
            health: Arc::new((0..np).map(|_| AtomicBool::new(false)).collect()),
            threads: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
        });
        let mut handles: Vec<JoinHandle<()>> = (0..np)
            .map(|me| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || worker_loop(me, pool))
            })
            .collect();
        if let Some(window) = window {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || pool.arbiter_loop(window)));
        }
        *pool.threads.lock().expect("pool thread list poisoned") = handles;
        pool
    }

    /// Number of virtual nodes (= worker threads).
    pub fn node_count(&self) -> usize {
        self.vnodes.len()
    }

    /// Wall time since the pool launched: the clock every tenant's
    /// adaptation loop, report and load schedule runs on.
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.epoch.elapsed().as_secs_f64())
    }

    /// Items currently queued at worker inboxes for `session`.
    pub(crate) fn queued_for(&self, session: SessionId) -> u64 {
        self.inboxes.iter().map(|b| b.queued_for(session.0)).sum()
    }

    /// Stops and joins the workers and the arbiter. Idempotent; called
    /// automatically by the owning session's teardown when the pool was
    /// created by [`crate::exec::spawn`], or by the cluster facade when
    /// the cluster closes. Sessions still attached unwind with
    /// truncated reports (their ack-waits observe `done`).
    pub fn shutdown(&self) {
        self.done.store(true, Ordering::SeqCst);
        for inbox in &self.inboxes {
            inbox.send_ctrl(Ctrl::Shutdown);
        }
        let handles = std::mem::take(&mut *self.threads.lock().expect("pool thread list poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}
