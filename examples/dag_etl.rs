//! DAG ETL: a diamond topology with per-stage resilience.
//!
//! The pipeline is a general DAG, not a chain, wired through typed
//! node handles — each stage names the stages it consumes:
//!
//! ```text
//! fetch ─┬─ parse ─┐
//!        └─ audit ─┴─ combine → sink
//! ```
//!
//! `parse` is deliberately unreliable: some records glitch *once* and
//! succeed when re-presented (a transient fault, absorbed by the retry
//! budget), and a few are structurally malformed and fail every attempt
//! (poison, diverted to the dead-letter channel instead of failing the
//! run). The stage's [`ResiliencePolicy`] declares both behaviours —
//! two retries with exponential backoff, dead-letter diversion, and
//! per-hop tracing — and the run report accounts for every retry and
//! diversion.
//!
//! Run with: `cargo run --release --example dag_etl`

use adapipe::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const ITEMS: u64 = 120;

fn main() {
    // Records glitch transiently when their payload ends in 4 (12 of
    // 120), and are malformed beyond repair when payload % 40 == 7
    // (3 of 120). The sets are disjoint.
    let glitched: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let mut dag = Pipeline::<u64>::dag();
    let fetch = dag.node("fetch", dag.input(), |x: u64| x + 1);
    // Both `parse` and `audit` consume `fetch`, so its handle is cloned.
    let parse = dag.try_node("parse", fetch.clone(), move |v: u64| {
        if v % 40 == 7 {
            return Err(format!("malformed record {v}"));
        }
        if v % 10 == 4 && glitched.lock().unwrap().insert(v) {
            return Err(format!("transient glitch on record {v}"));
        }
        Ok(v * 10)
    });
    dag.resilience(
        ResiliencePolicy::new()
            .retries(2)
            .backoff(SimDuration::from_millis(1), 2.0)
            .dead_letter()
            .trace(),
    );
    let audit = dag.node("audit", fetch, |v: u64| v + 100);
    let combine = dag.join("combine", vec![parse, audit], |outs: Vec<u64>| {
        outs[0] + outs[1]
    });
    let sink = dag.node("sink", combine, |x: u64| x);
    let pipeline = dag.exit(sink).build().expect("the diamond is a valid DAG");

    let vnodes = (0..3).map(|i| VNodeSpec::free(format!("v{i}"))).collect();
    let mut session = pipeline
        .spawn(
            Backend::Threads(vnodes),
            RunConfig {
                items: ITEMS,
                ..RunConfig::default()
            },
        )
        .expect("spawn");
    let events = session.events();
    for i in 0..ITEMS {
        session.push(i).unwrap();
    }
    let handle = session.drain();
    let report = &handle.report;

    // 3 poison records diverted; everything else delivered exactly once,
    // in order, with both branches merged.
    let expected: Vec<u64> = (0..ITEMS)
        .map(|x| x + 1)
        .filter(|v| v % 40 != 7)
        .map(|v| v * 10 + v + 100)
        .collect();
    assert!(handle.error.is_none(), "run failed: {:?}", handle.error);
    assert_eq!(report.completed, ITEMS - 3);
    assert_eq!(handle.outputs, expected, "healthy records must survive");
    assert_eq!(report.dead_letters, 3, "3 malformed records diverted");
    // 12 transient glitches × 1 recovery retry + 3 poison × 2 retries.
    assert_eq!(report.retries, 12 + 6, "every retry is accounted");
    for dead in &report.dead_letter_log {
        assert_eq!(dead.stage, 1, "only parse gives up on items");
        assert_eq!(dead.attempts, 3, "first try + two retries");
        assert!(dead.reason.contains("malformed"), "reason: {}", dead.reason);
    }

    // The trace policy emitted one ItemTrace per settled parse hop;
    // recovered items show their extra attempts.
    let mut traced = 0u64;
    let mut recovered = 0u64;
    let mut diverted = 0u64;
    for event in events.try_iter() {
        match event {
            RunEvent::ItemTrace {
                stage: 1, attempts, ..
            } => {
                traced += 1;
                if attempts > 1 {
                    recovered += 1;
                }
            }
            RunEvent::ItemDeadLettered { .. } => diverted += 1,
            _ => {}
        }
    }
    assert_eq!(traced, ITEMS - 3, "one trace per successful parse");
    assert_eq!(recovered, 12, "every transient glitch recovered");
    assert_eq!(diverted, 3, "every poison record announced");

    println!("== DAG ETL: diamond topology with a flaky parse stage ==\n");
    println!("records pushed        {ITEMS}");
    println!("records delivered     {}", report.completed);
    println!(
        "transient recoveries  {recovered} (via {} retries)",
        report.retries
    );
    println!("dead-lettered         {}", report.dead_letters);
    for dead in &report.dead_letter_log {
        println!(
            "  seq {:>3}  after {} attempts: {}",
            dead.seq, dead.attempts, dead.reason
        );
    }
    println!(
        "\nThe dead-letter channel keeps poison out of the output stream\n\
         without failing the run; the retry budget absorbs transient\n\
         faults entirely — and the report accounts for every attempt."
    );
}
