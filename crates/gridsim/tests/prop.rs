//! Property-style tests for the grid substrate's core invariants.
//!
//! The workspace builds offline, so instead of a property-testing
//! framework these sweep each invariant over a deterministic fan of
//! seeded load models and probe times. Failures print the offending
//! case, which reproduces exactly.

use adapipe_gridsim::prelude::*;
use adapipe_gridsim::rng::Rng64;

/// One load model from every class, parameterised by a case seed.
fn load_models(case: u64) -> Vec<LoadModel> {
    let mut rng = Rng64::new(0x10AD + case);
    let frac = |rng: &mut Rng64| rng.next_unit();
    vec![
        LoadModel::constant(frac(&mut rng)),
        LoadModel::step(
            frac(&mut rng),
            frac(&mut rng),
            SimTime::from_secs_f64(1000.0 * frac(&mut rng)),
        ),
        {
            let (hi, lo) = (frac(&mut rng), frac(&mut rng));
            LoadModel::square_wave(
                hi,
                lo,
                SimDuration::from_secs(1 + rng.next_range(299) as u64),
                (1 + rng.next_range(98)) as f64 / 100.0,
                SimDuration::ZERO,
            )
        },
        {
            let amp = 0.5 * frac(&mut rng);
            let mean = frac(&mut rng).min(1.0 - amp).max(amp);
            LoadModel::sinusoid(
                mean,
                amp,
                SimDuration::from_secs(2 + rng.next_range(598) as u64),
                8,
            )
        },
        LoadModel::random_walk(
            rng.next_u64(),
            0.7,
            0.1,
            SimDuration::from_secs(1 + rng.next_range(59) as u64),
            0.1,
            1.0,
            SimDuration::from_secs(600),
        ),
        LoadModel::markov_on_off(
            rng.next_u64(),
            SimDuration::from_secs(1 + rng.next_range(119) as u64),
            SimDuration::from_secs(1 + rng.next_range(119) as u64),
            0.3,
            SimDuration::from_secs(600),
        ),
    ]
}

const CASES: u64 = 12;

/// Availability is always within [0, 1], at any time, for any model.
#[test]
fn availability_is_always_a_fraction() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA11 + case);
        for model in load_models(case) {
            for _ in 0..8 {
                let t = 100_000.0 * rng.next_unit();
                let a = model.availability(SimTime::from_secs_f64(t));
                assert!((0.0..=1.0).contains(&a), "case {case}: a={a} at t={t}");
            }
        }
    }
}

/// next_breakpoint is strictly in the future and availability is
/// constant up to (just before) it.
#[test]
fn breakpoints_delimit_constant_segments() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xB4EA + case);
        for model in load_models(case) {
            for _ in 0..4 {
                let t0 = SimTime::from_secs_f64(10_000.0 * rng.next_unit());
                if let Some(bp) = model.next_breakpoint(t0) {
                    assert!(bp > t0, "case {case}: breakpoint {bp} not after {t0}");
                    let a0 = model.availability(t0);
                    // Probe a midpoint strictly inside the segment.
                    let mid =
                        SimTime::from_nanos(t0.as_nanos() + (bp.as_nanos() - t0.as_nanos()) / 2);
                    if mid > t0 && mid < bp {
                        assert_eq!(model.availability(mid), a0, "case {case}");
                    }
                }
            }
        }
    }
}

/// Work integration: completion time is monotone in the amount of work,
/// and never earlier than start.
#[test]
fn completion_time_is_monotone_in_work() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xC03 + case);
        for model in load_models(case) {
            let node = Node::new(NodeSpec::new("p", 2.0, 1), model);
            for _ in 0..4 {
                let start = SimTime::from_secs_f64(1_000.0 * rng.next_unit());
                let w1 = 100.0 * rng.next_unit();
                let extra = 100.0 * rng.next_unit();
                let c1 = node.completion_time(start, w1);
                let c2 = node.completion_time(start, w1 + extra);
                assert!(c1 >= start, "case {case}");
                assert!(
                    c2 >= c1,
                    "case {case}: more work finished earlier: {c2} < {c1}"
                );
            }
        }
    }
}

/// work_done inverts completion_time (up to float tolerance) whenever
/// the work completes.
#[test]
fn work_done_inverts_completion_time() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xD0E + case);
        for model in load_models(case) {
            let node = Node::new(NodeSpec::new("p", 1.5, 1), model);
            for _ in 0..4 {
                let start = SimTime::from_secs_f64(500.0 * rng.next_unit());
                let work = 0.01 + 49.99 * rng.next_unit();
                let done = node.completion_time(start, work);
                if done == SimTime::MAX {
                    continue; // never completes under this load
                }
                let measured = node.work_done(start, done);
                assert!(
                    (measured - work).abs() < 1e-6 * work.max(1.0),
                    "case {case}: measured {measured} vs {work}"
                );
            }
        }
    }
}

/// Mean availability lies within [0, 1] over any window.
#[test]
fn mean_availability_is_bounded() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xE4A + case);
        for model in load_models(case) {
            for _ in 0..4 {
                let from = SimTime::from_secs_f64(1_000.0 * rng.next_unit());
                let to = SimTime::from_secs_f64(from.as_secs_f64() + 0.1 + 499.9 * rng.next_unit());
                let mean = model.mean_availability(from, to);
                assert!((0.0..=1.0).contains(&mean), "case {case}: mean={mean}");
            }
        }
    }
}

/// The event queue releases events in non-decreasing time order with
/// FIFO tie-breaks, regardless of insertion order.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    for case in 0..24u64 {
        let mut rng = Rng64::new(0xF1F0 + case);
        let n = 1 + rng.next_range(199);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_nanos(rng.next_range(1_000) as u64), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                assert!(at >= lt, "case {case}");
                if at == lt {
                    assert!(id > lid, "case {case}: FIFO violated for ties");
                }
            }
            last = Some((at, id));
        }
    }
}

/// The event queue against a reference sorted by `(at, seq)`, under
/// the simulator's own access pattern: schedules and pops interleave,
/// an event often lands at the instant just popped, and many events tie
/// at one instant. `peek_time`, `len`, `is_empty` and `now` agree with
/// the reference after every operation. Interleaving is what frees and
/// reuses payload slots out of order, so a queue that broke ties by
/// slot rather than by sequence number fails here where a fill-then-
/// drain run cannot see it.
#[test]
fn event_queue_matches_a_sorted_reference_when_interleaved() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0xE7E7 + case);
        let mut q = EventQueue::new();
        // Pending `(at, seq)`; `seq` is also the payload.
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let mut seq = 0u64;
        // A narrow time range makes ties common; at a spread of 1 every
        // event lands at the instant last popped.
        let spread = 1 + case % 8;
        for op in 0..600 {
            let pop = !reference.is_empty() && rng.next_range(100) < 45;
            if pop {
                let min = (0..reference.len())
                    .min_by_key(|&i| reference[i])
                    .expect("non-empty");
                let expected = reference.remove(min);
                assert_eq!(q.pop(), Some(expected), "case {case} op {op}");
                assert_eq!(q.now(), expected.0, "case {case} op {op}");
                // Right after a pop, the simulator often schedules at
                // the very instant it is handling.
                if rng.next_range(3) == 0 {
                    let burst = 1 + rng.next_range(6);
                    for _ in 0..burst {
                        q.schedule(expected.0, seq);
                        reference.push((expected.0, seq));
                        seq += 1;
                    }
                }
            } else {
                let at = SimTime::from_nanos(
                    q.now().as_nanos() + rng.next_range(spread as usize) as u64,
                );
                q.schedule(at, seq);
                reference.push((at, seq));
                seq += 1;
            }
            assert_eq!(q.len(), reference.len(), "case {case} op {op}");
            assert_eq!(q.is_empty(), reference.is_empty(), "case {case} op {op}");
            assert_eq!(
                q.peek_time(),
                reference.iter().min().map(|&(at, _)| at),
                "case {case} op {op}"
            );
        }
        reference.sort_unstable();
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, reference, "case {case}: drain");
        assert_eq!(q.processed(), seq, "case {case}");
    }
}

/// Outage overlays force zero inside and preserve the base outside.
#[test]
fn outage_overlay_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x0F_F1 + case);
        for model in load_models(case) {
            let from = 500.0 * rng.next_unit();
            let len = 0.1 + 99.9 * rng.next_unit();
            let from_t = SimTime::from_secs_f64(from);
            let to_t = SimTime::from_secs_f64(from + len);
            let overlaid = model.clone().with_outages(&[(from_t, to_t)]);
            for _ in 0..6 {
                let p = SimTime::from_secs_f64(1_000.0 * rng.next_unit());
                let expected = if p >= from_t && p < to_t {
                    0.0
                } else {
                    model.availability(p)
                };
                assert_eq!(overlaid.availability(p), expected, "case {case} at {p}");
            }
        }
    }
}
