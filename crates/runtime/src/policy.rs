//! Adaptation policies: when the controller wakes up and what it may see.

use adapipe_gridsim::time::SimDuration;

/// When and how the pipeline adapts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// Never adapt: the launch-time mapping runs to completion. The
    /// baseline every grid scheduler without run-time support provides.
    Static,
    /// Re-plan every `interval` using *forecast* availability from the
    /// monitoring subsystem — the paper's adaptive pattern.
    Periodic {
        /// Time between adaptation checks.
        interval: SimDuration,
    },
    /// Sample every `interval`, but only re-plan when observed throughput
    /// drops below `degradation` × the model's expectation — saves
    /// planning work on calm grids.
    Reactive {
        /// Time between observation samples.
        interval: SimDuration,
        /// Re-plan when `observed < degradation × expected` (e.g. `0.8`).
        degradation: f64,
    },
    /// Re-plan every `interval` using the *true* mean availability over
    /// the next interval (simulation-only clairvoyance). Upper-bounds
    /// what any forecast-driven controller could achieve at the same
    /// adaptation granularity.
    Oracle {
        /// Time between adaptation checks.
        interval: SimDuration,
    },
}

impl Policy {
    /// The canonical adaptive policy with a 5 s period.
    pub fn periodic_default() -> Self {
        Policy::Periodic {
            interval: SimDuration::from_secs(5),
        }
    }

    /// The sampling interval, or `None` for [`Policy::Static`].
    pub fn interval(&self) -> Option<SimDuration> {
        match *self {
            Policy::Static => None,
            Policy::Periodic { interval }
            | Policy::Reactive { interval, .. }
            | Policy::Oracle { interval } => Some(interval),
        }
    }

    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::Periodic { .. } => "adaptive",
            Policy::Reactive { .. } => "reactive",
            Policy::Oracle { .. } => "oracle",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_only_for_adaptive_policies() {
        assert_eq!(Policy::Static.interval(), None);
        assert_eq!(
            Policy::Periodic {
                interval: SimDuration::from_secs(3)
            }
            .interval(),
            Some(SimDuration::from_secs(3))
        );
        assert!(Policy::Oracle {
            interval: SimDuration::from_secs(1)
        }
        .interval()
        .is_some());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Policy::Static.name(), "static");
        assert_eq!(Policy::periodic_default().name(), "adaptive");
        assert_eq!(
            Policy::Oracle {
                interval: SimDuration::from_secs(1)
            }
            .name(),
            "oracle"
        );
    }
}
