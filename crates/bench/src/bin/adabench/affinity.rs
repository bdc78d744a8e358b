//! Confining the process to one CPU: every workload runs that way.
//!
//! On a shared 2-vCPU host an idle vCPU halts, and waking it costs an
//! exit to the hypervisor: 100–150 µs or ~5 µs depending on the
//! hypervisor's halt-polling state, which flips every few seconds. A
//! set-up cycle (four wake-ups) read 64 µs or 580 µs, and the
//! throughput of every threaded workload depended on where the
//! scheduler put its two to four threads and on what a wake-up cost at
//! that moment: the three workloads that used both CPUs are the ones
//! the acceptance check found spread by 35–60 % between identical runs.
//! With every thread on one CPU a hand-off is a context switch, and
//! throughput is the CPU time an item costs. Threads inherit the mask
//! of the thread that creates them, so pinning the bench thread before
//! `spawn` confines the engine's workers too.

/// Bits of the kernel CPU mask this module handles (1024 CPUs).
const WORDS: usize = 16;
type Mask = [u64; WORDS];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; super::WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed and
        // is only read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

/// The mask holding only the highest CPU set in `allowed` (interrupts
/// tend to land on the lowest), or `None` if `allowed` is empty.
fn last_cpu_only(allowed: &Mask) -> Option<Mask> {
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let mut one: Mask = [0; WORDS];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    Some(one)
}

/// While alive, the calling thread — and every thread it creates — may
/// run on one CPU only. Dropping it restores the previous mask. Where
/// affinity cannot be read or set the guard does nothing.
pub struct OneCpu {
    restore: Option<Mask>,
}

impl OneCpu {
    pub fn pin() -> OneCpu {
        let restore =
            sys::get().filter(|allowed| last_cpu_only(allowed).is_some_and(|one| sys::set(&one)));
        OneCpu { restore }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(mask) = self.restore.take() {
            sys::set(&mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_highest_allowed_cpu() {
        let mut allowed: Mask = [0; WORDS];
        assert_eq!(last_cpu_only(&allowed), None);
        allowed[0] = 0b1011;
        let mut want: Mask = [0; WORDS];
        want[0] = 0b1000;
        assert_eq!(last_cpu_only(&allowed), Some(want));
        allowed[2] = 1;
        let mut want: Mask = [0; WORDS];
        want[2] = 1;
        assert_eq!(last_cpu_only(&allowed), Some(want));
    }

    #[test]
    fn pinning_is_undone_on_drop() {
        // Run on a thread of its own: the mask is per thread, and other
        // tests run in parallel on theirs.
        std::thread::spawn(|| {
            let before = sys::get();
            {
                let _pinned = OneCpu::pin();
                if let (Some(now), Some(all)) = (sys::get(), before) {
                    assert_eq!(Some(now), last_cpu_only(&all));
                }
            }
            assert_eq!(sys::get(), before);
        })
        .join()
        .expect("the affinity test thread panicked");
    }
}
