//! Real CPU load injection.
//!
//! The schedule-based slowdown in [`crate::vnode`] is deterministic and
//! is what experiments use. For demonstrations that want *genuine*
//! resource contention (example `loaded_host`), this module burns CPU on
//! real threads with a configurable duty cycle, reproducing the
//! "another grid user's job arrives" scenario physically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A handle to running background load; dropping it stops the burners.
pub struct LoadInjector {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl LoadInjector {
    /// Starts `threads` burner threads, each consuming `duty` of one core
    /// (`duty = 0.7` → 70 % busy, 30 % idle per 10 ms quantum).
    ///
    /// # Panics
    /// Panics if `duty` is outside `[0, 1]` or `threads` is zero.
    pub fn start(threads: usize, duty: f64) -> Self {
        assert!(threads > 0, "need at least one burner thread");
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0,1]");
        let stop = Arc::new(AtomicBool::new(false));
        let quantum = Duration::from_millis(10);
        let busy = quantum.mul_f64(duty);
        let handles = (0..threads)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let start = Instant::now();
                        while start.elapsed() < busy {
                            std::hint::spin_loop();
                        }
                        let rest = quantum.saturating_sub(start.elapsed());
                        if !rest.is_zero() {
                            std::thread::sleep(rest);
                        }
                    }
                })
            })
            .collect();
        LoadInjector {
            stop,
            threads: handles,
        }
    }

    /// Stops all burner threads and waits for them.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for LoadInjector {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_starts_and_stops() {
        let inj = LoadInjector::start(2, 0.5);
        std::thread::sleep(Duration::from_millis(30));
        inj.stop(); // must not hang
    }

    #[test]
    fn drop_stops_burners() {
        {
            let _inj = LoadInjector::start(1, 0.9);
            std::thread::sleep(Duration::from_millis(20));
        } // drop here must join cleanly
    }

    #[test]
    fn zero_duty_is_pure_sleep() {
        let inj = LoadInjector::start(1, 0.0);
        std::thread::sleep(Duration::from_millis(20));
        inj.stop();
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn bad_duty_panics() {
        let _ = LoadInjector::start(1, 1.5);
    }
}
