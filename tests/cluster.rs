//! Multi-tenant cluster semantics, cross-backend: many concurrent
//! sessions on one shared node pool must (1) keep per-tenant
//! exactly-once output isolation when a shared node dies mid-stream,
//! (2) surface the same typed lifecycle errors on both backends, and
//! (3) enforce admission rules (quota validity, per-session fault
//! rejection, sim-pool oversubscription).

use adapipe::prelude::*;
use std::time::Duration;

fn n(i: usize) -> NodeId {
    NodeId(i)
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

const STAGE_SECS: f64 = 0.004;
const ITEMS: u64 = 60;

fn grid3() -> GridSpec {
    testbed_small3()
}

fn vnodes3() -> Vec<VNodeSpec> {
    (0..3).map(|i| VNodeSpec::free(format!("v{i}"))).collect()
}

/// A two-stage spinning pipeline; `bump` differentiates tenants so each
/// session's outputs are distinguishable.
fn tenant_pipeline(bump: u64) -> Pipeline<u64, u64> {
    Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("a", STAGE_SECS, 8), move |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            x + bump
        })
        .stage_with(StageSpec::balanced("b", STAGE_SECS, 8), |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            x + 1
        })
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(100),
        })
        .build()
        .expect("tenant pipeline builds")
}

fn tenant_cfg() -> RunConfig {
    RunConfig {
        items: ITEMS,
        initial_mapping: Some(Mapping::from_assignment(&[n(0), n(1)])),
        ..RunConfig::default()
    }
}

/// Node 1 crashes at t = 0.25 s — mid-stream on either clock — and the
/// pool-wide plan applies to every tenant at the same instants.
fn crash_plan() -> FaultPlan {
    FaultPlan::new().crash(n(1), secs(0.25))
}

/// Satellite: cross-tenant fault isolation. Three concurrent sessions
/// share the pool; a shared node dies mid-stream; every tenant must
/// independently replay its stranded items and keep exactly-once
/// observable output — no tenant loses items, no tenant sees another's.
fn assert_chaos_isolation(backend: Backend<'_>, tag: &str) {
    let mut cluster = Cluster::new(
        backend,
        ClusterConfig {
            faults: crash_plan(),
            ..ClusterConfig::default()
        },
    )
    .expect("cluster launches");
    let events = cluster.events();

    let quota = ShareQuota::bounded(0.0, 1.0 / 3.0);
    let mut sessions = Vec::new();
    for t in 0..3u64 {
        let session = cluster
            .admit(
                tenant_pipeline(10 * (t + 1)),
                SessionConfig {
                    run: tenant_cfg(),
                    quota,
                },
            )
            .expect("tenant admitted");
        sessions.push(session);
    }
    let ids: Vec<SessionId> = sessions.iter().map(|s| s.session_id()).collect();
    assert_eq!(cluster.sessions(), ids, "{tag}: admission order ids");

    // Interleave the tenants' pushes so the crash lands mid-stream for
    // all of them.
    for i in 0..ITEMS {
        for session in sessions.iter_mut() {
            session.push(i).unwrap();
        }
    }
    for (t, session) in sessions.into_iter().enumerate() {
        let bump = 10 * (t as u64 + 1) + 1;
        let handle = session.drain();
        assert_eq!(
            handle.report.completed, ITEMS,
            "{tag}: tenant {t} lost items to the shared crash"
        );
        assert!(!handle.report.truncated, "{tag}: tenant {t} truncated");
        assert_eq!(handle.error, None, "{tag}: tenant {t} errored");
        if matches!(handle.outputs.len(), 0) {
            // Sim backend yields real outputs too; both backends land here.
            panic!("{tag}: tenant {t} returned no outputs");
        }
        let expect: Vec<u64> = (0..ITEMS).map(|x| x + bump).collect();
        assert_eq!(
            handle.outputs, expect,
            "{tag}: tenant {t} outputs not exactly-once in order"
        );
    }

    // The merged event stream observed the shared outage, tagged per
    // tenant; replay events (if the crash stranded in-flight items) may
    // only name admitted sessions.
    let mut node_down = 0usize;
    for event in events.try_iter() {
        match event {
            RunEvent::NodeDown { node, session, .. } => {
                assert_eq!(node, 1, "{tag}: wrong node reported down");
                assert!(ids.contains(&session), "{tag}: unknown session in event");
                node_down += 1;
            }
            RunEvent::ItemReplayed { session, .. } => {
                assert!(ids.contains(&session), "{tag}: replay for unknown session");
            }
            _ => {}
        }
    }
    assert!(node_down > 0, "{tag}: shared crash never observed");
}

#[test]
fn shared_node_crash_keeps_every_tenant_exactly_once_sim() {
    let grid = grid3();
    assert_chaos_isolation(Backend::Sim(&grid), "sim");
}

#[test]
fn shared_node_crash_keeps_every_tenant_exactly_once_threads() {
    assert_chaos_isolation(Backend::Threads(vnodes3()), "threads");
}

/// Satellite: typed lifecycle errors. A closed session rejects pushes
/// with `RunError::SessionClosed` on both backends.
fn assert_closed_push_rejected(backend: Backend<'_>, tag: &str) {
    let mut session = tenant_pipeline(1)
        .spawn(backend, RunConfig::default())
        .expect("session spawns");
    session.push(0).unwrap();
    session.close();
    assert_eq!(
        session.push(1),
        Err(RunError::SessionClosed),
        "{tag}: push after close"
    );
    assert_eq!(
        session.push_batch(2..4),
        Err(RunError::SessionClosed),
        "{tag}: push_batch after close"
    );
    let handle = session.drain();
    assert_eq!(handle.report.completed, 1, "{tag}: admitted item lost");
}

#[test]
fn closed_session_rejects_pushes_typed_sim() {
    let grid = grid3();
    assert_closed_push_rejected(Backend::Sim(&grid), "sim");
}

#[test]
fn closed_session_rejects_pushes_typed_threads() {
    assert_closed_push_rejected(Backend::Threads(vnodes3()), "threads");
}

/// Graceful eviction: pushes fail typed while in-flight items drain to
/// a complete, untruncated report — on both backends.
fn assert_graceful_eviction(backend: Backend<'_>, tag: &str) {
    let mut cluster = Cluster::new(backend, ClusterConfig::default()).expect("cluster launches");
    let mut session = cluster
        .admit(
            tenant_pipeline(1),
            SessionConfig {
                run: RunConfig {
                    items: 10,
                    ..RunConfig::default()
                },
                quota: ShareQuota::default(),
            },
        )
        .expect("tenant admitted");
    let id = session.session_id();
    for i in 0..10 {
        session.push(i).unwrap();
    }
    assert!(cluster.evict(id), "{tag}: eviction of a live tenant");
    assert!(!cluster.evict(SessionId(999)), "{tag}: unknown id evicted");
    assert_eq!(
        session.push(10),
        Err(RunError::Evicted { session: id }),
        "{tag}: push after graceful evict"
    );
    let handle = session.drain();
    assert_eq!(handle.report.completed, 10, "{tag}: in-flight items lost");
    assert!(!handle.report.truncated, "{tag}: graceful evict truncated");
}

#[test]
fn graceful_eviction_drains_in_flight_items_sim() {
    let grid = grid3();
    assert_graceful_eviction(Backend::Sim(&grid), "sim");
}

#[test]
fn graceful_eviction_drains_in_flight_items_threads() {
    assert_graceful_eviction(Backend::Threads(vnodes3()), "threads");
}

/// Forced eviction: the run fails with the typed error and the report
/// comes back truncated — on both backends.
fn assert_forced_eviction(backend: Backend<'_>, tag: &str) {
    let mut cluster = Cluster::new(backend, ClusterConfig::default()).expect("cluster launches");
    let mut session = cluster
        .admit(
            tenant_pipeline(1),
            SessionConfig {
                run: RunConfig {
                    items: ITEMS,
                    ..RunConfig::default()
                },
                quota: ShareQuota::default(),
            },
        )
        .expect("tenant admitted");
    let id = session.session_id();
    for i in 0..ITEMS {
        session.push(i).unwrap();
    }
    assert!(cluster.evict_now(id), "{tag}: forced eviction");
    assert_eq!(
        session.error(),
        Some(RunError::Evicted { session: id }),
        "{tag}: forced eviction error"
    );
    assert!(
        !cluster.sessions().contains(&id),
        "{tag}: evicted tenant still listed"
    );
    let handle = session.drain();
    assert_eq!(
        handle.error,
        Some(RunError::Evicted { session: id }),
        "{tag}: drain after forced eviction"
    );
    assert!(
        handle.report.truncated || handle.report.completed == ITEMS,
        "{tag}: report neither truncated nor complete"
    );
}

#[test]
fn forced_eviction_fails_the_run_typed_sim() {
    let grid = grid3();
    assert_forced_eviction(Backend::Sim(&grid), "sim");
}

#[test]
fn forced_eviction_fails_the_run_typed_threads() {
    assert_forced_eviction(Backend::Threads(vnodes3()), "threads");
}

/// Admits a five-item [`tenant_pipeline`] holding at most half the pool.
fn admit_half<'g>(cluster: &mut Cluster<'g>) -> RunSession<'g, u64, u64> {
    cluster
        .admit(
            tenant_pipeline(1),
            SessionConfig {
                run: RunConfig {
                    items: 5,
                    ..RunConfig::default()
                },
                quota: ShareQuota::bounded(0.0, 0.5),
            },
        )
        .expect("tenant admitted")
}

/// One prune rule on both backends: a drained tenant leaves the pool's
/// registry at once — it is not listed, has no share, and there is
/// nothing to evict. The arbiter's window is far longer than the test,
/// so the threaded registry cannot count on the arbiter pruning first.
fn assert_drained_tenant_leaves_at_once(backend: Backend<'_>, tag: &str) {
    let mut cluster = Cluster::new(
        backend,
        ClusterConfig {
            window: Duration::from_secs(10),
            ..ClusterConfig::default()
        },
    )
    .expect("cluster launches");
    let mut drained = admit_half(&mut cluster);
    let live = admit_half(&mut cluster);
    let (gone, kept) = (drained.session_id(), live.session_id());
    for i in 0..5 {
        drained.push(i).unwrap();
    }
    let handle = drained.drain();
    assert_eq!(
        handle.report.completed, 5,
        "{tag}: drained tenant lost items"
    );
    assert_eq!(
        cluster.sessions(),
        vec![kept],
        "{tag}: sessions after drain"
    );
    assert_eq!(
        cluster.share_of(gone),
        None,
        "{tag}: drained tenant's share"
    );
    assert!(!cluster.evict(gone), "{tag}: drained tenant evicted");
    assert!(
        !cluster.evict_now(gone),
        "{tag}: drained tenant force-evicted"
    );
    assert!(
        cluster.share_of(kept).is_some(),
        "{tag}: live tenant's share"
    );
    assert!(
        !live.drain().report.truncated,
        "{tag}: live tenant truncated"
    );
}

#[test]
fn drained_tenant_leaves_the_registry_at_once_sim() {
    let grid = grid3();
    assert_drained_tenant_leaves_at_once(Backend::Sim(&grid), "sim");
}

#[test]
fn drained_tenant_leaves_the_registry_at_once_threads() {
    assert_drained_tenant_leaves_at_once(Backend::Threads(vnodes3()), "threads");
}

/// Admission rules: malformed quotas, per-session fault plans, and
/// (sim) oversubscribed static shares are rejected with typed errors.
#[test]
fn admission_rejects_bad_quota_faults_and_oversubscription() {
    let grid = grid3();
    let mut cluster = Cluster::new(Backend::Sim(&grid), ClusterConfig::default()).unwrap();

    let bad_quota = cluster.admit(
        tenant_pipeline(1),
        SessionConfig {
            run: RunConfig::default(),
            quota: ShareQuota {
                min_share: 0.8,
                max_share: 0.2,
                weight: 1.0,
            },
        },
    );
    assert!(matches!(bad_quota, Err(BuildError::InvalidQuota { .. })));

    let per_session_faults = cluster.admit(
        tenant_pipeline(1),
        SessionConfig {
            run: RunConfig {
                faults: crash_plan(),
                ..RunConfig::default()
            },
            quota: ShareQuota::default(),
        },
    );
    assert!(matches!(
        per_session_faults,
        Err(BuildError::PerSessionFaults)
    ));

    // Ceilings may not oversubscribe the sim pool: 0.7 + 0.5 > 1.
    let first = cluster
        .admit(
            tenant_pipeline(1),
            SessionConfig {
                run: RunConfig::default(),
                quota: ShareQuota::bounded(0.0, 0.7),
            },
        )
        .expect("first tenant fits");
    let over = cluster.admit(
        tenant_pipeline(2),
        SessionConfig {
            run: RunConfig::default(),
            quota: ShareQuota::bounded(0.0, 0.5),
        },
    );
    assert!(matches!(over, Err(BuildError::PoolOversubscribed { .. })));

    // Releasing the first tenant frees its grant.
    drop(first.abort());
    cluster
        .admit(
            tenant_pipeline(2),
            SessionConfig {
                run: RunConfig::default(),
                quota: ShareQuota::bounded(0.0, 0.5),
            },
        )
        .expect("share released after the first tenant ended");
}

/// Sim cluster capacity semantics: a tenant granted half the pool takes
/// about twice as long as one owning it, and two equal co-tenants
/// produce identical (deterministic) reports.
#[test]
fn sim_static_shares_stretch_service_deterministically() {
    let grid = grid3();

    let solo = tenant_pipeline(1)
        .run(
            Backend::Sim(&grid),
            RunConfig {
                items: ITEMS,
                ..RunConfig::default()
            },
        )
        .expect("solo run")
        .report;

    let mut cluster = Cluster::new(Backend::Sim(&grid), ClusterConfig::default()).unwrap();
    let mut tenants = Vec::new();
    for _ in 0..2 {
        let mut session = cluster
            .admit(
                tenant_pipeline(1),
                SessionConfig {
                    run: RunConfig {
                        items: ITEMS,
                        ..RunConfig::default()
                    },
                    quota: ShareQuota::bounded(0.5, 0.5),
                },
            )
            .expect("tenant admitted");
        for i in 0..ITEMS {
            session.push(i).unwrap();
        }
        tenants.push(session);
    }
    let reports: Vec<RunReport> = tenants.into_iter().map(|s| s.drain().report).collect();
    for (t, report) in reports.iter().enumerate() {
        assert_eq!(report.completed, ITEMS, "tenant {t} lost items");
        let ratio = report.makespan.as_secs_f64() / solo.makespan.as_secs_f64();
        assert!(
            (1.6..=2.4).contains(&ratio),
            "tenant {t}: half-share makespan ratio {ratio:.2} not ~2x solo"
        );
    }
    assert_eq!(
        reports[0].makespan, reports[1].makespan,
        "equal co-tenants diverged — sim cluster lost determinism"
    );
}

/// A tenant attached to a running threaded pool plans its launch
/// mapping from the pool's availability at attach, not at the pool's
/// t = 0: v0 was the faster node until its load stepped up at 20 ms,
/// so a tenant admitted at 100 ms must start on v1.
#[test]
fn late_tenant_plans_from_the_pool_clock_at_attach() {
    let vnodes = vec![
        VNodeSpec::free("v0").with_load(LoadModel::step(1.0, 0.05, secs(0.02))),
        VNodeSpec::with_speed("v1", 0.25),
    ];
    let mut cluster =
        Cluster::new(Backend::Threads(vnodes), ClusterConfig::default()).expect("cluster launches");
    std::thread::sleep(Duration::from_millis(100));
    let pipeline = Pipeline::<u64>::builder()
        .stage_with(
            StageSpec::balanced("inc", 1e-4, 8).with_replicas(1),
            |x: u64| x + 1,
        )
        .policy(Policy::Static)
        .build()
        .expect("one-stage pipeline builds");
    let mut session = cluster
        .admit(
            pipeline,
            SessionConfig {
                run: RunConfig {
                    items: 4,
                    ..RunConfig::default()
                },
                quota: ShareQuota::default(),
            },
        )
        .expect("tenant admitted");
    session.push_batch(0..4).expect("pushes admitted");
    let report = session.drain().report;
    assert_eq!(report.completed, 4);
    assert_eq!(
        report.final_mapping,
        Mapping::from_assignment(&[n(1)]),
        "launch mapping planned from t = 0 availability"
    );
}
