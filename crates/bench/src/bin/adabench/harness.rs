//! The one generator every threaded workload is driven by: a single
//! bench thread that pushes seeded inputs into a live, bounded
//! [`RunSession`], pulls outputs with `try_next`, and checks each one in
//! order against an inline reference it computes itself.
//!
//! Three phases, each timed from outside the program:
//!
//! * **set-up** — cold cycles of build → spawn → one item round trip →
//!   drain → drop;
//! * **throughput** — closed loop: a fresh session per rep, a fixed
//!   item count pushed as fast as the bounded session admits, the clock
//!   stopped when `drain` has returned the last output;
//! * **latency** (traced run of a [`Paced`] workload only) — open loop:
//!   bursts due on a fixed schedule (a fixed rate, about half of
//!   capacity) whether or not the pipeline keeps up, each burst timed
//!   from when it was *due* to when its last output came back, and how
//!   late the generator ran recorded beside it.

use crate::trace::Tracer;
use adapipe::api::{Backend, Pipeline, RunConfig, RunSession, TryNext};
use adapipe_engine::vnode::VNodeSpec;
use adapipe_runtime::report::RunReport;
use std::time::{Duration, Instant};

/// How the generator drives one workload. Fixed per workload, so every
/// commit is measured on the same work.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Items of one timed throughput rep.
    pub rep_items: u64,
    /// Items pushed between two polls of the output side.
    pub chunk: u64,
    /// `push_batch` a chunk at a time, or `push` item by item.
    pub batched: bool,
}

/// The open-loop schedule of a workload whose latency is measured: only
/// one whose service time dominates its hand-offs, because wall-clock
/// latency at the 100 µs scale does not repeat on a shared host.
#[derive(Clone, Copy, Debug)]
pub struct Paced {
    /// Items of one burst, sized so that its service time is a
    /// millisecond or more.
    pub burst_items: u64,
    /// Time between two bursts' due instants, fixed so that the offered
    /// load is about half of what the pipeline sustained when the
    /// benchmark was defined. The pipeline then never idles for long:
    /// bursts that each met a long-idle pipeline (four service times
    /// apart) paid the hypervisor's wake-up of a halted vCPU, and their
    /// p50 moved 14–20 % between identical runs.
    pub burst_period: Duration,
}

/// A threaded workload: a pipeline, its pinned launch configuration,
/// its seeded inputs, and the inline reference its outputs must equal.
pub trait Threaded {
    type In: Send + 'static;
    type Out: Send + PartialEq + 'static;
    /// Running state of the inline reference over one stream.
    type Ref;

    fn shape(&self) -> Shape;
    /// The latency phase's schedule, for the workload that has one.
    fn paced(&self) -> Option<Paced> {
        None
    }
    fn build(&self) -> Pipeline<Self::In, Self::Out>;
    fn vnodes(&self) -> usize;
    /// Pinned mapping, static policy, bounded queues.
    fn config(&self) -> RunConfig;
    /// Input `index` of stream `stream`.
    fn input(&self, stream: u64, index: u64) -> Self::In;
    fn new_ref(&self) -> Self::Ref;
    /// The inline reference: the whole pipeline applied to `input` on
    /// the calling thread, inputs taken in stream order. It is also the
    /// single-thread baseline the engine's throughput is compared to.
    fn inline(&self, r: &mut Self::Ref, input: Self::In) -> Self::Out;
    /// True if `out` is what the reference computes for input `index`;
    /// called once per output, in output order.
    fn expect(&self, r: &mut Self::Ref, stream: u64, index: u64, out: &Self::Out) -> bool {
        self.inline(r, self.input(stream, index)) == *out
    }
}

fn backend(vnodes: usize) -> Backend<'static> {
    Backend::Threads(
        (0..vnodes)
            .map(|i| VNodeSpec::free(format!("v{i}")))
            .collect(),
    )
}

/// Items pushed and items that went wrong, summed over a whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// In-order checker of one stream's outputs.
struct Checker<'w, W: Threaded> {
    w: &'w W,
    stream: u64,
    reference: W::Ref,
    received: u64,
    wrong: u64,
}

impl<'w, W: Threaded> Checker<'w, W> {
    fn new(w: &'w W, stream: u64) -> Self {
        Checker {
            w,
            stream,
            reference: w.new_ref(),
            received: 0,
            wrong: 0,
        }
    }

    fn take(&mut self, out: W::Out) {
        if !self
            .w
            .expect(&mut self.reference, self.stream, self.received, &out)
        {
            self.wrong += 1;
        }
        self.received += 1;
    }

    /// Failed operations once the stream of `pushed` items has ended:
    /// wrong or out-of-order outputs, lost items, duplicates, and
    /// whatever the run report itself owns up to.
    fn finish(self, pushed: u64, report: &RunReport, errored: bool) -> Tally {
        let lost_or_extra = pushed.abs_diff(self.received);
        let unaccounted = pushed.abs_diff(report.completed);
        let reported = report.dead_letters + u64::from(report.truncated) + u64::from(errored);
        Tally {
            attempted: pushed,
            failed: self.wrong + lost_or_extra.max(unaccounted) + reported,
        }
    }
}

fn spawn<W: Threaded>(w: &W, tr: &mut Tracer) -> RunSession<'static, W::In, W::Out> {
    let t = tr.begin("build");
    let pipeline = w.build();
    tr.end(t);
    let t = tr.begin("spawn");
    let session = pipeline
        .spawn(backend(w.vnodes()), w.config())
        .expect("the workload's pinned configuration is valid");
    tr.end(t);
    session
}

fn push_range<W: Threaded>(
    w: &W,
    session: &mut RunSession<'static, W::In, W::Out>,
    stream: u64,
    range: std::ops::Range<u64>,
    batched: bool,
) {
    if batched {
        session
            .push_batch(range.map(|i| w.input(stream, i)))
            .expect("a live session accepts pushes");
    } else {
        for i in range {
            session
                .push(w.input(stream, i))
                .expect("a live session accepts pushes");
        }
    }
}

/// One cold set-up cycle; returns its wall seconds.
pub fn setup_cycle<W: Threaded>(w: &W, stream: u64, tr: &mut Tracer, tally: &mut Tally) -> f64 {
    let t0 = Instant::now();
    let cycle = tr.begin("setup_cycle");
    let mut session = spawn(w, tr);
    let mut check = Checker::new(w, stream);
    let t = tr.begin("push");
    push_range(w, &mut session, stream, 0..1, false);
    tr.end(t);
    let t = tr.begin("next");
    if let Some(out) = session.next() {
        check.take(out);
    }
    tr.end(t);
    let t = tr.begin("drain");
    let handle = session.drain();
    tr.end(t);
    let t = tr.begin("drop");
    let errored = handle.error.is_some();
    let report = handle.report;
    for out in handle.outputs {
        check.take(out);
    }
    tally.add(check.finish(1, &report, errored));
    drop(report);
    tr.end(t);
    tr.end(cycle);
    t0.elapsed().as_secs_f64()
}

/// What one throughput rep measured.
pub struct Rep {
    /// First push → `drain` returned.
    pub secs: f64,
    pub tally: Tally,
    pub report: RunReport,
}

/// One closed-loop throughput rep over `items` items of stream `stream`.
pub fn throughput_rep<W: Threaded>(w: &W, stream: u64, items: u64, tr: &mut Tracer) -> Rep {
    let shape = w.shape();
    let mut session = spawn(w, tr);
    let mut check = Checker::new(w, stream);
    let rep = tr.begin("rep");
    let t0 = Instant::now();
    let mut sent = 0;
    while sent < items {
        let hi = (sent + shape.chunk).min(items);
        let t = tr.begin(if shape.batched { "push_batch" } else { "push" });
        push_range(w, &mut session, stream, sent..hi, shape.batched);
        tr.end_calls(t, if shape.batched { 1 } else { (hi - sent) as u32 });
        sent = hi;
        let t = tr.begin("try_next");
        let mut polls = 1;
        while let TryNext::Item(out) = session.try_next() {
            check.take(out);
            polls += 1;
        }
        tr.end_calls(t, polls);
    }
    let t = tr.begin("drain");
    let handle = session.drain();
    tr.end(t);
    let secs = t0.elapsed().as_secs_f64();
    tr.end(rep);
    let errored = handle.error.is_some();
    for out in handle.outputs {
        check.take(out);
    }
    Rep {
        secs,
        tally: check.finish(items, &handle.report, errored),
        report: handle.report,
    }
}

/// What the open-loop latency phase measured.
pub struct Latency {
    /// Per burst: due instant → last output received, µs.
    pub burst_us: Vec<f64>,
    /// Per burst: how late after its due instant the generator began
    /// pushing it, µs.
    pub late_us: Vec<f64>,
    pub tally: Tally,
}

/// Longest nap between polls of the output side.
const POLL_NAP: Duration = Duration::from_micros(50);
/// Leading bursts that warm the session up and are not recorded.
const WARM_BURSTS: u64 = 8;

/// Open loop for about `budget`: bursts of `paced.burst_items` due every
/// `paced.burst_period` on one live session, outputs stamped as
/// `try_next` returns them on this thread.
pub fn latency_phase<W: Threaded>(
    w: &W,
    paced: Paced,
    stream: u64,
    budget: Duration,
    tr: &mut Tracer,
) -> Latency {
    let batched = w.shape().batched;
    let k = paced.burst_items;
    let bursts = WARM_BURSTS + (budget.as_secs_f64() / paced.burst_period.as_secs_f64()) as u64;
    let mut session = spawn(w, tr);
    let mut check = Checker::new(w, stream);
    let phase = tr.begin("latency_phase");
    let start = Instant::now() + paced.burst_period;
    let due = |b: u64| start + paced.burst_period * b as u32;
    let mut burst_us = Vec::with_capacity(bursts as usize);
    let mut late_us = Vec::with_capacity(bursts as usize);
    let mut pushed_bursts = 0;
    // A lost item must end the phase as a counted failure, not a hang.
    let deadline = start + budget * 3 + Duration::from_secs(5);
    while check.received < bursts * k && Instant::now() < deadline {
        let mut idle = true;
        if pushed_bursts < bursts {
            let now = Instant::now();
            if now >= due(pushed_bursts) {
                if pushed_bursts >= WARM_BURSTS {
                    late_us.push((now - due(pushed_bursts)).as_secs_f64() * 1e6);
                }
                let lo = pushed_bursts * k;
                push_range(w, &mut session, stream, lo..lo + k, batched);
                pushed_bursts += 1;
                idle = false;
            }
        }
        while let TryNext::Item(out) = session.try_next() {
            check.take(out);
            idle = false;
            if check.received.is_multiple_of(k) {
                let b = check.received / k - 1;
                if b >= WARM_BURSTS {
                    burst_us.push((Instant::now() - due(b)).as_secs_f64() * 1e6);
                }
            }
        }
        if idle {
            if session.error().is_some() {
                break;
            }
            let nap = if pushed_bursts < bursts {
                due(pushed_bursts)
                    .saturating_duration_since(Instant::now())
                    .min(POLL_NAP)
            } else {
                POLL_NAP
            };
            std::thread::sleep(nap);
        }
    }
    tr.end(phase);
    let pushed = pushed_bursts * k;
    let handle = session.drain();
    let errored = handle.error.is_some();
    for out in handle.outputs {
        check.take(out);
    }
    Latency {
        burst_us,
        late_us,
        tally: check.finish(pushed, &handle.report, errored),
    }
}
