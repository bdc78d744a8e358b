//! The worker pool: one thread per virtual node, their inboxes, node
//! health and the wall-clock zero — launch, health, shutdown — and the
//! [`Bell`] every lifecycle wait sleeps on. What a worker thread does
//! is in `worker`; what the pool's threads share about one tenant is in
//! `tenant`; the pool's tenant registry and a cluster's capacity
//! arbiter are in `arbiter`.

use crate::arbiter::TenantEntry;
use crate::inbox::{Ctrl, Inbox};
use crate::threads::{self, JoinHandle};
use crate::vnode::VNodeSpec;
use crate::worker::worker_loop;
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_runtime::session::SessionId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// exit, stray work is discarded, teardown ack-waits give up.
    pub(crate) done: AtomicBool,
    /// Rung by a tenant's last detach ack and by [`Pool::shutdown`]:
    /// what a detaching session and the arbiter sleep on.
    pub(crate) bell: Bell,
    /// Node down flags, shared with every tenant's routing table
    /// (`RoutingTable::with_shared_health`): one tenant's fault tracker
    /// marking a node down excludes it for all tenants.
    pub(crate) health: Arc<Vec<AtomicBool>>,
    /// One worker job per vnode, then a cluster's arbiter job, each on a
    /// thread of the thread cache.
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
            bell: Bell::default(),
            health: Arc::new((0..np).map(|_| AtomicBool::new(false)).collect()),
            threads: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
        });
        let mut handles: Vec<JoinHandle<()>> = (0..np)
            .map(|me| {
                let pool = Arc::clone(&pool);
                threads::spawn(move || worker_loop(me, pool))
            })
            .collect();
        if let Some(window) = window {
            let pool = Arc::clone(&pool);
            handles.push(threads::spawn(move || pool.arbiter_loop(window)));
        }
        *pool.threads.lock().expect("pool thread list poisoned") = handles;
        pool
    }

    /// Number of virtual nodes (= worker threads).
    pub fn node_count(&self) -> usize {
        self.vnodes.len()
    }

    /// Wall time since the pool launched: the clock every tenant's
    /// adaptation loop, report, load schedule and item stamps run on.
    pub(crate) fn now(&self) -> SimTime {
        self.at(Instant::now())
    }

    /// `instant` on the pool clock, in whole nanoseconds since
    /// [`Pool::epoch`] (zero for an instant before it).
    #[inline]
    pub(crate) fn at(&self, instant: Instant) -> SimTime {
        let since = instant.saturating_duration_since(self.epoch);
        SimTime::from_nanos(SimDuration::from_duration(since).as_nanos())
    }

    /// Items currently queued at worker inboxes for `session`.
    pub(crate) fn queued_for(&self, session: SessionId) -> u64 {
        self.inboxes.iter().map(|b| b.queued_for(session.0)).sum()
    }

    /// Stops the workers and the arbiter and waits for each job to
    /// finish; their threads go back to the thread cache. Idempotent;
    /// called automatically by the owning session's teardown when the
    /// pool was created by [`crate::exec::spawn`], or by the cluster
    /// facade when the cluster closes. Sessions still attached unwind with
    /// truncated reports (their ack-waits observe `done`).
    pub fn shutdown(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.bell.ring();
        for inbox in &self.inboxes {
            inbox.send_ctrl(Ctrl::Shutdown);
        }
        let handles = std::mem::take(&mut *self.threads.lock().expect("pool thread list poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// What a lifecycle thread sleeps on: it waits until a condition holds
/// or a deadline passes, and whoever makes the condition true rings.
/// The condition is read under the bell's lock and a ringer takes that
/// lock, so a ring that follows the change it announces is never lost.
/// Nothing polls: a wait ends on a ring or on its deadline.
#[derive(Default)]
pub(crate) struct Bell {
    lock: Mutex<()>,
    rung: Condvar,
}

impl Bell {
    /// Blocks until `stop()` holds — true — or until `deadline` passes
    /// (never, with `None`) — false.
    pub(crate) fn wait(&self, deadline: Option<Instant>, stop: impl Fn() -> bool) -> bool {
        let mut guard = self.lock.lock().expect("bell lock poisoned");
        loop {
            if stop() {
                return true;
            }
            guard = match deadline {
                None => self.rung.wait(guard).expect("bell lock poisoned"),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    self.rung
                        .wait_timeout(guard, left)
                        .expect("bell lock poisoned")
                        .0
                }
            };
        }
    }

    /// Wakes every waiter to re-read its condition. Call it after the
    /// change the waiters are waiting for.
    pub(crate) fn ring(&self) {
        let _guard = self.lock.lock().expect("bell lock poisoned");
        self.rung.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{spawn, EngineSession};
    use adapipe_core::pipeline::PipelineBuilder;
    use adapipe_core::spec::StageSpec;
    use adapipe_runtime::arrivals::ArrivalProcess;
    use adapipe_runtime::policy::Policy;
    use adapipe_runtime::session::{LiveSession, RunConfig, Session};
    use std::sync::mpsc::channel;

    /// Far beyond any bound below: a wait that sleeps out one of these
    /// deadlines instead of being woken fails its guard.
    const HOUR: Duration = Duration::from_secs(3600);

    /// Generous: only a wait that sleeps until its deadline misses it.
    const PROMPT: Duration = Duration::from_secs(10);

    /// Runs `f` on a thread of its own and fails unless it returns
    /// within [`PROMPT`] (the thread is left behind if it does not).
    fn promptly(what: &str, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(PROMPT).is_ok(),
            "{what} slept past {PROMPT:?}"
        );
    }

    /// A threaded session re-planning once an hour, a few items in.
    fn hourly() -> EngineSession<u64, u64> {
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(StageSpec::balanced("a", 0.0, 8), |x: u64| x + 1)
            .build();
        let interval = SimDuration::from_secs_f64(HOUR.as_secs_f64());
        let session = Session::new(Policy::Periodic { interval }, ArrivalProcess::AllAtOnce)
            .expect("valid session");
        let vnodes = (0..2).map(|i| VNodeSpec::free(format!("v{i}"))).collect();
        let mut run = spawn(pipeline, vnodes, &session, &RunConfig::default());
        for i in 0..10 {
            run.push(i).expect("open session takes the push");
        }
        run
    }

    #[test]
    fn teardown_wakes_an_hourly_adaptation_thread() {
        promptly("drain", || assert_eq!(hourly().drain().outputs.len(), 10));
        promptly("abort", || drop(hourly().abort()));
        promptly("drop", || drop(hourly()));
    }

    #[test]
    fn shutdown_wakes_an_hourly_arbiter() {
        let vnodes = (0..2).map(|i| VNodeSpec::free(format!("v{i}"))).collect();
        let pool = Pool::launch(vnodes, FaultPlan::new(), Some(HOUR));
        promptly("pool shutdown", move || pool.shutdown());
    }
}
