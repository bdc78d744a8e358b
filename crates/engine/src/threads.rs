//! The engine's thread cache: every lifecycle thread — a pool's workers
//! and arbiter, a session's adaptation loop — runs as a job on a thread
//! this module keeps, so a session that starts after another has ended
//! reuses the threads the first one gave back instead of creating and
//! reaping its own.
//!
//! [`spawn`] hands its job to a spare thread if one is waiting and
//! starts a new thread otherwise: a job never queues behind another.
//! A job runs under `catch_unwind`, so a panic comes back through
//! [`JoinHandle::join`] as `Err`, as `std::thread`'s does, and the
//! thread serves on. A finished thread goes back on the spare list
//! *before* it publishes its job's result, so whoever joins it finds it
//! spare at their next `spawn`. A spare thread that no spawner takes
//! within [`LINGER`] exits: a process that stops running sessions
//! returns to the threads it had.
//!
//! A thread keeps the CPU mask of the thread that created it, whoever
//! later hands it a job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// How long a spare thread waits for its next job before it exits.
const LINGER: Duration = Duration::from_millis(50);

/// The process's spare threads.
static CACHE: Cache = Cache::new(LINGER);

/// A job as a cache thread runs it: the caller's closure, given the
/// hook that puts the thread back on the spare list, which it calls
/// between its work and publishing the work's result.
type Job = Box<dyn FnOnce(&dyn Fn()) + Send>;

/// A spare thread: who it is, and where to hand it its next job.
type Spare = (ThreadId, Sender<Job>);

/// Runs `f` on a spare thread, or on a new one if none is waiting.
pub(crate) fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    CACHE.spawn(f)
}

/// Owned permission to wait for a job's result, as
/// [`std::thread::JoinHandle`]; dropping it leaves the job running.
pub(crate) struct JoinHandle<T> {
    result: Receiver<thread::Result<T>>,
}

impl<T> JoinHandle<T> {
    /// Waits for the job to finish: its value, or the payload it
    /// panicked with.
    pub(crate) fn join(self) -> thread::Result<T> {
        self.result
            .recv()
            .expect("a cache thread publishes every job's result")
    }
}

/// Spare threads, and how long each waits for a job before it exits.
struct Cache {
    /// The latest to finish last: a spawner takes the most recent, so
    /// the others age out when fewer are needed.
    spare: Mutex<Vec<Spare>>,
    linger: Duration,
}

impl Cache {
    const fn new(linger: Duration) -> Self {
        Cache {
            spare: Mutex::new(Vec::new()),
            linger,
        }
    }

    fn spawn<T, F>(&'static self, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (done, result) = sync_channel(1);
        let job: Job = Box::new(move |relist| {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            relist();
            // The joiner may have dropped its handle: nobody to tell.
            let _ = done.send(outcome);
        });
        let spare = self.lock().pop();
        match spare {
            // A thread leaves the list only to take a job or to exit,
            // and it exits only if it takes itself off: this one waits.
            Some((_, mailbox)) => mailbox.send(job).expect("a spare thread waits for its job"),
            // Detached: a cache thread ends on its own, after its linger,
            // and its jobs report through their own handles.
            None => drop(thread::spawn(move || self.serve(job))),
        }
        JoinHandle { result }
    }

    /// A cache thread's life: run `job`, wait for the next, and exit
    /// once none comes within the linger.
    fn serve(&'static self, mut job: Job) {
        let me = thread::current().id();
        let (mailbox, jobs) = channel();
        loop {
            job(&|| self.lock().push((me, mailbox.clone())));
            job = match jobs.recv_timeout(self.linger) {
                Ok(next) => next,
                // Never disconnected: this thread holds its own mailbox.
                Err(_) => {
                    if self.unlist(me) {
                        return;
                    }
                    // A spawner took this thread off the list as the
                    // linger ran out: its job is on the way.
                    jobs.recv().expect("this thread holds its own mailbox")
                }
            };
        }
    }

    /// Takes thread `me` off the spare list; false if a spawner already
    /// has.
    fn unlist(&self, me: ThreadId) -> bool {
        let mut spare = self.lock();
        let at = spare.iter().position(|&(id, _)| id == me);
        at.map(|at| spare.remove(at)).is_some()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Spare>> {
        self.spare.lock().expect("thread cache poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::mpsc::Sender;

    /// A linger no test outlasts: a spare thread of a cache built with
    /// it is still waiting whenever the test's next spawn comes.
    const HOUR: Duration = Duration::from_secs(3600);

    /// Generous: only a wait that is never met runs this long.
    const PROMPT: Duration = Duration::from_secs(10);

    fn id() -> ThreadId {
        thread::current().id()
    }

    fn spare(cache: &Cache) -> Vec<ThreadId> {
        cache.lock().iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn sequential_jobs_run_on_one_thread() {
        static CACHE: Cache = Cache::new(HOUR);
        let first = CACHE.spawn(id).join().expect("job returns");
        assert_eq!(spare(&CACHE), [first]);
        assert_eq!(CACHE.spawn(id).join().expect("job returns"), first);
        assert_eq!(spare(&CACHE), [first]);
    }

    #[test]
    fn a_panicking_job_joins_as_err_and_its_thread_serves_on() {
        static CACHE: Cache = Cache::new(HOUR);
        let (tx, rx) = channel();
        let failed = CACHE.spawn(move || {
            tx.send(id()).expect("test holds the receiver");
            panic!("the job fails");
        });
        let payload = failed.join().expect_err("a panic joins as Err");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"the job fails"));
        let ran_on = rx.recv().expect("the job ran");
        assert_eq!(CACHE.spawn(id).join().expect("job returns"), ran_on);
    }

    #[test]
    fn a_job_waiting_on_a_later_job_completes() {
        static CACHE: Cache = Cache::new(HOUR);
        // A spare thread first, so the waiting job takes it and the
        // later job finds none: it must start a thread, not queue.
        let warm = CACHE.spawn(id).join().expect("job returns");
        let (started, has_started) = channel();
        let (tx, rx) = channel();
        let waiting = CACHE.spawn(move || {
            started.send(()).expect("test holds the receiver");
            (id(), rx.recv_timeout(PROMPT).is_ok())
        });
        // The later job is spawned while the first one is running.
        has_started.recv().expect("the waiting job starts");
        let later = CACHE.spawn(move || {
            tx.send(()).expect("the waiting job holds the receiver");
            id()
        });
        let later = later.join().expect("job returns");
        let (waited_on, woken) = waiting.join().expect("job returns");
        assert!(woken, "the later job never ran while the first waited");
        assert_eq!(waited_on, warm);
        assert_ne!(later, warm);
    }

    /// Signals its channel when the thread holding it exits.
    struct OnExit(Sender<ThreadId>);

    impl Drop for OnExit {
        fn drop(&mut self) {
            let _ = self.0.send(id());
        }
    }

    thread_local! {
        static ON_EXIT: RefCell<Option<OnExit>> = const { RefCell::new(None) };
    }

    #[test]
    fn a_spare_thread_exits_after_the_linger() {
        static CACHE: Cache = Cache::new(LINGER);
        let (tx, exited) = channel();
        let ran_on = CACHE
            .spawn(move || {
                ON_EXIT.with(|on| *on.borrow_mut() = Some(OnExit(tx)));
                id()
            })
            .join()
            .expect("job returns");
        // Listed before its result was published: still waiting now.
        assert_eq!(spare(&CACHE), [ran_on]);
        assert_eq!(exited.recv_timeout(PROMPT), Ok(ran_on));
        assert!(spare(&CACHE).is_empty());
    }
}
