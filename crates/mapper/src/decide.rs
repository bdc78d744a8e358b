//! Re-mapping decisions: hysteresis and cost/benefit analysis.
//!
//! Finding a better mapping is necessary but not sufficient: migrating
//! stages costs time (state transfer, pipeline drain), and on a volatile
//! grid a naive controller oscillates ("thrashes") between mappings,
//! losing more to migration than adaptation gains. The decision rule
//! implemented here re-maps only when
//!
//! 1. the predicted throughput gain is at least `min_relative_gain`, and
//! 2. the predicted time saved on the *remaining* stream exceeds the
//!    migration cost by `cost_benefit_factor`.
//!
//! One rule runs *before* the search: [`certified_keep`] proves, from
//! the current mapping's prediction and the forecast rates alone, that
//! [`should_remap`] would keep whatever candidate the search returned,
//! so a planning cycle it certifies need not search at all.

use crate::model::{PipelineProfile, Prediction};

/// Tunables for [`should_remap`].
#[derive(Clone, Copy, Debug)]
pub struct DecisionConfig {
    /// Minimum relative throughput improvement (e.g. `0.1` = 10 %).
    pub min_relative_gain: f64,
    /// Require `saved_time ≥ factor × migration_cost`.
    pub cost_benefit_factor: f64,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            min_relative_gain: 0.10,
            cost_benefit_factor: 2.0,
        }
    }
}

/// Outcome of a re-mapping evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Keep the current mapping.
    Keep {
        /// Why the candidate was rejected.
        reason: KeepReason,
    },
    /// Switch to the candidate mapping.
    Remap {
        /// Predicted wall-clock seconds saved on the remaining stream,
        /// net of migration cost.
        net_gain_seconds: f64,
        /// Candidate ÷ current predicted throughput.
        speedup: f64,
    },
}

/// Why a candidate mapping was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeepReason {
    /// The candidate is no better (or worse) than the current mapping.
    NoImprovement,
    /// Improvement below the hysteresis threshold.
    BelowThreshold,
    /// Improvement real but migration would cost more than it saves on
    /// the remaining stream.
    NotWorthMigration,
    /// Nothing left to process; adaptation is pointless.
    StreamExhausted,
    /// [`certified_keep`] proved the keep before any search ran: no
    /// candidate could have passed [`should_remap`].
    Certified,
}

/// Decides whether to migrate from `current` to `candidate` given
/// `remaining_items` still to process and an estimated one-off
/// `migration_seconds`.
pub fn should_remap(
    current: &Prediction,
    candidate: &Prediction,
    remaining_items: u64,
    migration_seconds: f64,
    config: &DecisionConfig,
) -> Decision {
    if remaining_items == 0 {
        return Decision::Keep {
            reason: KeepReason::StreamExhausted,
        };
    }
    if candidate.throughput <= current.throughput {
        return Decision::Keep {
            reason: KeepReason::NoImprovement,
        };
    }
    // current.throughput may be 0 (dead mapping): any finite candidate is
    // then infinitely better and must pass the threshold.
    let speedup = if current.throughput > 0.0 {
        candidate.throughput / current.throughput
    } else {
        f64::INFINITY
    };
    if speedup - 1.0 < config.min_relative_gain {
        return Decision::Keep {
            reason: KeepReason::BelowThreshold,
        };
    }
    let remaining = remaining_items as f64;
    let current_time = if current.throughput > 0.0 {
        remaining / current.throughput
    } else {
        f64::INFINITY
    };
    let candidate_time = remaining / candidate.throughput + migration_seconds;
    let net_gain_seconds = current_time - candidate_time;
    // NaN-safe: any non-comparable value must fail the gate.
    let worthwhile = net_gain_seconds >= config.cost_benefit_factor * migration_seconds;
    if !worthwhile {
        return Decision::Keep {
            reason: KeepReason::NotWorthMigration,
        };
    }
    Decision::Remap {
        net_gain_seconds,
        speedup,
    }
}

/// The highest throughput any mapping of `profile` can reach under
/// `rates`: total speed ÷ total work, the classic period bound for
/// pipeline mappings (Benoit / Rehn-Sonigo / Robert).
///
/// Proof: each of stage `s`'s `width` hosts `n` is busy
/// `stage_work[s] / rates[n] / width` seconds per item, so
/// `Σ_n rates[n] · node_load[n] = Σ_s stage_work[s] = W` however the
/// stages are replicated. A mapping on a dead node scores zero; on live
/// nodes the busiest load `L` then satisfies `W ≤ L · R`, `R` the sum
/// of the positive rates. Links can only make the busiest resource
/// busier, so `throughput ≤ 1 / L ≤ R / W`.
pub fn throughput_ceiling(profile: &PipelineProfile, rates: &[f64]) -> f64 {
    let speed: f64 = rates.iter().filter(|&&r| r > 0.0).sum();
    speed / profile.total_work()
}

/// Relative slack on [`throughput_ceiling`] for rounding: the ceiling
/// and a candidate's throughput are each a few correctly rounded
/// operations, ~1e-16 apart from exact arithmetic.
const CEILING_MARGIN: f64 = 1e-9;

/// True when [`should_remap`] is certain to keep `current` whatever
/// candidate a search over `rates` would propose, so the search can be
/// skipped:
///
/// * nothing remains to process: the verdict is `StreamExhausted`
///   before any candidate is looked at;
/// * or the [`throughput_ceiling`] is under `1 + min_relative_gain`
///   times the current throughput: no candidate can clear the
///   hysteresis threshold, so the verdict is `NoImprovement` or
///   `BelowThreshold` (or the search returns `current` itself).
///
/// The second rule never certifies a dead current mapping (zero
/// throughput): recovery always searches.
pub fn certified_keep(
    profile: &PipelineProfile,
    rates: &[f64],
    current: &Prediction,
    remaining_items: u64,
    config: &DecisionConfig,
) -> bool {
    remaining_items == 0
        || throughput_ceiling(profile, rates) * (1.0 + CEILING_MARGIN)
            < (1.0 + config.min_relative_gain) * current.throughput
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Bottleneck;
    use adapipe_gridsim::node::NodeId;

    fn pred(throughput: f64) -> Prediction {
        Prediction {
            throughput,
            latency: 1.0,
            bottleneck: Bottleneck::Node(NodeId(0)),
            node_load: vec![],
        }
    }

    #[test]
    fn clear_win_remaps() {
        let d = should_remap(
            &pred(1.0),
            &pred(2.0),
            1000,
            5.0,
            &DecisionConfig::default(),
        );
        match d {
            Decision::Remap {
                net_gain_seconds,
                speedup,
            } => {
                // 1000 s now vs 500 + 5 s after: net 495 s.
                assert!((net_gain_seconds - 495.0).abs() < 1e-9);
                assert!((speedup - 2.0).abs() < 1e-12);
            }
            other => panic!("expected remap, got {other:?}"),
        }
    }

    #[test]
    fn no_improvement_keeps() {
        let d = should_remap(
            &pred(2.0),
            &pred(2.0),
            1000,
            0.0,
            &DecisionConfig::default(),
        );
        assert_eq!(
            d,
            Decision::Keep {
                reason: KeepReason::NoImprovement
            }
        );
        let d2 = should_remap(
            &pred(2.0),
            &pred(1.0),
            1000,
            0.0,
            &DecisionConfig::default(),
        );
        assert_eq!(
            d2,
            Decision::Keep {
                reason: KeepReason::NoImprovement
            }
        );
    }

    #[test]
    fn small_gain_below_threshold_keeps() {
        // 5 % gain < 10 % threshold.
        let d = should_remap(
            &pred(1.0),
            &pred(1.05),
            10_000,
            0.0,
            &DecisionConfig::default(),
        );
        assert_eq!(
            d,
            Decision::Keep {
                reason: KeepReason::BelowThreshold
            }
        );
    }

    #[test]
    fn short_remaining_stream_rejects_migration() {
        // Candidate is 2× better, but only 4 items remain and migration
        // costs 10 s: 4 s now vs 2 + 10 s after.
        let d = should_remap(&pred(1.0), &pred(2.0), 4, 10.0, &DecisionConfig::default());
        assert_eq!(
            d,
            Decision::Keep {
                reason: KeepReason::NotWorthMigration
            }
        );
    }

    #[test]
    fn exhausted_stream_keeps() {
        let d = should_remap(&pred(1.0), &pred(100.0), 0, 0.0, &DecisionConfig::default());
        assert_eq!(
            d,
            Decision::Keep {
                reason: KeepReason::StreamExhausted
            }
        );
    }

    #[test]
    fn dead_current_mapping_always_remaps() {
        let d = should_remap(
            &pred(0.0),
            &pred(0.5),
            10,
            100.0,
            &DecisionConfig::default(),
        );
        assert!(matches!(d, Decision::Remap { .. }), "got {d:?}");
    }

    #[test]
    fn cost_benefit_factor_scales_bar() {
        let strict = DecisionConfig {
            min_relative_gain: 0.1,
            cost_benefit_factor: 50.0,
        };
        // Net gain 495 s < 50 × 10 s.
        let d = should_remap(&pred(1.0), &pred(2.0), 1000, 10.0, &strict);
        assert_eq!(
            d,
            Decision::Keep {
                reason: KeepReason::NotWorthMigration
            }
        );
        let lax = DecisionConfig {
            min_relative_gain: 0.1,
            cost_benefit_factor: 1.0,
        };
        assert!(matches!(
            should_remap(&pred(1.0), &pred(2.0), 1000, 10.0, &lax),
            Decision::Remap { .. }
        ));
    }

    #[test]
    fn certificate_needs_the_ceiling_below_the_threshold() {
        // Work 4 over rates 1 + 1 (+ a dead node): ceiling 0.5 items/s.
        let profile = PipelineProfile::uniform(vec![1.0, 3.0], 0);
        let rates = [1.0, 1.0, 0.0];
        assert_eq!(throughput_ceiling(&profile, &rates), 0.5);
        let cfg = DecisionConfig::default();
        // 0.5 < 1.1 × 0.46: no mapping can be 10 % better.
        assert!(certified_keep(&profile, &rates, &pred(0.46), 10, &cfg));
        // 0.5 ≥ 1.1 × 0.45: one might be, so search.
        assert!(!certified_keep(&profile, &rates, &pred(0.45), 10, &cfg));
        // A dead mapping always searches, unless nothing remains.
        assert!(!certified_keep(&profile, &rates, &pred(0.0), 10, &cfg));
        assert!(certified_keep(&profile, &rates, &pred(0.0), 0, &cfg));
    }

    #[test]
    fn free_migration_with_real_gain_remaps() {
        let d = should_remap(&pred(1.0), &pred(1.2), 100, 0.0, &DecisionConfig::default());
        assert!(matches!(d, Decision::Remap { .. }));
    }
}
