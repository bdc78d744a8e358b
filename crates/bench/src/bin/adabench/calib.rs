//! How fast the host is right now: a fixed reference kernel timed beside
//! every rep, so that a rep is reported at the host's *nominal* speed
//! and not at whatever speed the host had while it ran.
//!
//! The shared host this benchmark is accepted on has two speeds (see the
//! README): for seconds to minutes at a time everything but a bare
//! dependent ALU chain runs 1.25–1.6 times slower, the switch between
//! the two is sharp, and a whole 20-second run can sit in either. No
//! order statistic over a run's reps removes a slowdown that outlasts
//! the run; dividing by a clock that slows down with the program does.
//! The kernel below — fill and sort a 32 KB array, branchy and
//! cache-resident like the code under test — slows by 1.3–1.45 when the
//! six workloads slow by 1.25–1.45, so what is left of a slow spell
//! after the division is within ± 10 %.
//!
//! The kernel is the benchmark's own and uses nothing of the
//! repository: a change to the program cannot move it.

use std::time::Instant;

/// Seconds one [`Host::time`] takes on the reference host in its fast
/// state. A fixed unit conversion: it makes a normalised rate read as
/// items per second there, and cancels out of every comparison.
pub const NOMINAL_SECS: f64 = 1.84e-3;

const SLOTS: usize = 4096;
const SORTS: usize = 32;

pub struct Host {
    state: u64,
}

impl Host {
    pub fn new() -> Host {
        let mut host = Host {
            state: 0x9E37_79B9_7F4A_7C15,
        };
        // Untimed: the first pass faults the stack pages in.
        host.time();
        host
    }

    /// Seconds the reference kernel takes now.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..SORTS {
            let mut v = [0u64; SLOTS];
            for slot in v.iter_mut() {
                // xorshift64
                self.state ^= self.state << 13;
                self.state ^= self.state >> 7;
                self.state ^= self.state << 17;
                *slot = self.state;
            }
            v.sort_unstable();
            acc = acc.wrapping_add(v[SLOTS / 2]);
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

/// By what factor the host ran slower than nominal over a stretch that
/// the kernel took `before` and `after` seconds on either side of.
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / (2.0 * NOMINAL_SECS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_time_and_the_factor_is_its_mean_over_nominal() {
        let mut host = Host::new();
        assert!(host.time() > 0.0);
        assert_eq!(slowdown(NOMINAL_SECS, NOMINAL_SECS), 1.0);
        assert!((slowdown(NOMINAL_SECS, 2.0 * NOMINAL_SECS) - 1.5).abs() < 1e-12);
    }
}
