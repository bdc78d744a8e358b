//! Thread census of the threaded backend's session lifecycle: every way
//! a session can end — drained, aborted, dropped, under a periodic
//! policy, with a fault plan pending, attached to a cluster's pool —
//! gives back every thread it started, the next session reuses them,
//! and a drained run delivers each output exactly once.
//!
//! One `#[test]`, so this binary runs it alone and the count of
//! `/proc/self/task` sees no other test's threads. It counts threads,
//! not time: nothing here has a wall-clock bound.

#[cfg(target_os = "linux")]
mod census {
    use adapipe::prelude::*;
    use std::time::Duration;

    const CYCLES: usize = 50;
    const ITEMS: u64 = 40;

    /// Threads of this process right now.
    fn threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs lists this process's threads")
            .count()
    }

    /// Asserts that right after `case`'s cycles, before a given-back
    /// thread has waited out its linger, the process holds at most
    /// `baseline` plus the threads of one session (`session`): each
    /// cycle reused the threads the one before gave back, rather than
    /// starting its own or leaving one behind.
    fn assert_reused(baseline: usize, session: usize, case: &str) {
        let now = threads();
        assert!(
            now <= baseline + session,
            "{case}: {now} threads right after {CYCLES} cycles, \
             more than baseline {baseline} plus one session's {session}"
        );
    }

    /// Asserts the process is back at `baseline` threads after `case`.
    /// The engine keeps a given-back thread for its next session and
    /// lets it exit once it has waited 50 ms (its linger) unused, and a
    /// thread that has exited can stay listed until the kernel has
    /// reaped it, microseconds later: the count gets a second to
    /// settle, twenty lingers, and nothing else.
    fn assert_settles_at(baseline: usize, case: &str) {
        let mut now = threads();
        for _ in 0..1000 {
            if now == baseline {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
            now = threads();
        }
        panic!("{case}: {now} threads after {CYCLES} cycles, baseline {baseline}");
    }

    fn vnodes() -> Vec<VNodeSpec> {
        (0..2).map(|i| VNodeSpec::free(format!("v{i}"))).collect()
    }

    fn pipeline(policy: Policy) -> Pipeline<u64, u64> {
        Pipeline::<u64>::builder()
            .stage("double", |x: u64| x * 2)
            .stage("bump", |x: u64| x + 1)
            .policy(policy)
            .build()
            .expect("lifecycle pipeline builds")
    }

    fn periodic() -> Policy {
        Policy::Periodic {
            interval: SimDuration::from_secs(3600),
        }
    }

    /// Pushes the stream into `session`.
    fn feed(session: &mut RunSession<'_, u64, u64>) {
        for i in 0..ITEMS {
            session.push(i).expect("open session takes the push");
        }
    }

    /// Asserts a drained run's outputs are the stream's, each once.
    fn assert_exactly_once(case: &str, mut outputs: Vec<u64>) {
        outputs.sort_unstable();
        let expected: Vec<u64> = (0..ITEMS).map(|x| x * 2 + 1).collect();
        assert_eq!(outputs, expected, "{case}: outputs");
    }

    fn drained(case: &str, policy: Policy, cfg: RunConfig) {
        let mut session = pipeline(policy)
            .spawn(Backend::Threads(vnodes()), cfg)
            .expect("session spawns");
        feed(&mut session);
        let run = session.drain();
        assert!(run.error.is_none(), "{case}: {:?}", run.error);
        assert_exactly_once(case, run.outputs);
    }

    fn spawned() -> RunSession<'static, u64, u64> {
        let mut session = pipeline(Policy::Static)
            .spawn(Backend::Threads(vnodes()), RunConfig::default())
            .expect("session spawns");
        feed(&mut session);
        session
    }

    #[test]
    fn every_session_ending_gives_back_its_threads() {
        let baseline = threads();

        // Each case with the threads one of its sessions runs: two
        // workers, plus the adaptation thread when the loop has a
        // schedule. The session itself runs none: it reads its sink on
        // the caller's thread, so a thread added per session fails here.
        type Case = (&'static str, usize, fn());
        let cases: [Case; 5] = [
            ("static, drained", 2, || {
                drained("static", Policy::Static, RunConfig::default())
            }),
            ("static, aborted", 2, || {
                spawned().abort();
            }),
            ("static, dropped", 2, || drop(spawned())),
            ("periodic, drained", 3, || {
                drained("periodic", periodic(), RunConfig::default())
            }),
            ("static with a fault plan, drained", 3, || {
                // The crash is an hour out: the adaptation thread is
                // asleep on it when the session tears down.
                let cfg = RunConfig {
                    faults: FaultPlan::new().crash(NodeId(1), SimTime::from_secs_f64(3600.0)),
                    ..RunConfig::default()
                };
                drained("faulted", Policy::Static, cfg)
            }),
        ];
        for (case, session, cycle) in cases {
            for _ in 0..CYCLES {
                cycle();
            }
            assert_reused(baseline, session, case);
            assert_settles_at(baseline, case);
        }

        // A cluster's pool outlives its tenants: attach and detach
        // against the pool's own threads, then shut the pool down.
        let mut cluster = Cluster::new(Backend::Threads(vnodes()), ClusterConfig::default())
            .expect("cluster launches");
        let with_pool = threads();
        for _ in 0..CYCLES {
            let mut session = cluster
                .admit(pipeline(periodic()), SessionConfig::default())
                .expect("cluster admits the tenant");
            feed(&mut session);
            let run = session.drain();
            assert_exactly_once("cluster tenant", run.outputs);
        }
        // A tenant runs its adaptation thread and nothing else.
        assert_reused(with_pool, 1, "cluster attach/detach");
        assert_settles_at(with_pool, "cluster attach/detach");
        cluster.shutdown();
        assert_settles_at(baseline, "cluster shutdown");
    }
}
