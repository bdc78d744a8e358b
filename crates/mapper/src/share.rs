//! Cross-tenant capacity arbitration: split one pool's capacity among
//! concurrent pipeline sessions.
//!
//! A multi-tenant cluster runs many pipelines over one node pool; each
//! tenant declares a [`ShareQuota`] — a guaranteed floor (`min_share`),
//! a cap (`max_share`), and a `weight` for dividing what is left. Per
//! sensing window the pool's arbiter observes, for every live tenant,
//! two cheap counters — whether it *progressed* (completed anything
//! since the last window) and how many of its items sit *backlogged* in
//! the pool's worker inboxes ([`TenantSignal`]) — and derives each
//! tenant's **demand**, the capacity fraction it could productively use
//! ([`window_demands`]):
//!
//! * backlogged ⇒ the tenant is supply-limited: it could use the whole
//!   pool (demand 1.0);
//! * progressing without backlog ⇒ the tenant keeps up with its current
//!   grant: demand = current share (its surplus, if any, is released
//!   only when it goes idle — a keeping-up tenant is never squeezed);
//! * idle (no progress, no backlog) ⇒ demand decays to zero after a
//!   grace period of [`IDLE_GRACE`] windows, releasing even the
//!   tenant's `min_share` floor to the others. The grace period keeps a
//!   briefly quiet tenant (e.g. between request bursts) from losing its
//!   guarantee and having to re-earn it with queueing delay.
//!
//! The demands feed [`arbitrate`], which implements weighted
//! progressive filling (max-min fairness):
//!
//! 1. every active tenant is granted its `min_share` floor;
//! 2. the remaining capacity is poured over the unsatisfied tenants in
//!    proportion to their weights;
//! 3. a tenant whose grant reaches its demand or its `max_share` cap
//!    freezes there and its unused weight is re-poured over the rest.
//!
//! The result is the global objective of the cluster tentpole: the
//! weighted sum of per-tenant throughput is maximised subject to the
//! quota constraints, because capacity only ever sits idle when every
//! tenant is demand- or cap-limited. The returned shares drive both
//! *enforcement* (weighted-fair envelope admission at the worker
//! inboxes) and *planning* (each tenant's planner sees the pool scaled
//! by its share).

/// One tenant's capacity contract, as fractions of total pool capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShareQuota {
    /// Guaranteed floor: the tenant is always granted at least this
    /// fraction while active, even when others are saturated.
    pub min_share: f64,
    /// Cap: the tenant is never granted more than this fraction, even
    /// with the pool otherwise idle.
    pub max_share: f64,
    /// Relative weight for dividing capacity above the floors; only
    /// ratios matter.
    pub weight: f64,
}

impl Default for ShareQuota {
    /// No floor, no cap, unit weight — a best-effort tenant.
    fn default() -> Self {
        ShareQuota {
            min_share: 0.0,
            max_share: 1.0,
            weight: 1.0,
        }
    }
}

impl ShareQuota {
    /// A best-effort quota with the given weight.
    pub fn weighted(weight: f64) -> Self {
        ShareQuota {
            weight,
            ..Self::default()
        }
    }

    /// A quota bounded to `[min_share, max_share]` with unit weight.
    pub fn bounded(min_share: f64, max_share: f64) -> Self {
        ShareQuota {
            min_share,
            max_share,
            weight: 1.0,
        }
    }

    /// True if the quota is internally consistent: shares in `[0, 1]`,
    /// floor at or below cap, weight positive and finite.
    pub fn is_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.min_share)
            && (0.0..=1.0).contains(&self.max_share)
            && self.min_share <= self.max_share
            && self.weight > 0.0
            && self.weight.is_finite()
    }
}

/// Floor below which a demand counts as "inactive": the tenant is
/// granted zero and its floor is released to the others.
const ACTIVE_DEMAND: f64 = 1e-12;

/// Numerical slack for progressive-filling convergence.
const EPS: f64 = 1e-9;

/// Splits one unit of pool capacity over tenants by weighted
/// progressive filling (see the module docs). `demand[i]` is the
/// capacity fraction tenant `i` could productively use this window;
/// `quotas[i]` its contract. Returns one share per tenant, each within
/// `[0, min(demand, max_share)] ∪ {min_share}`, summing to at most 1.
///
/// Floors are honoured even for demand-limited tenants (a tenant's
/// grant never falls below `min_share` while it is active), so a
/// briefly idle-looking tenant does not lose its guarantee between
/// windows. If the declared floors oversubscribe the pool (Σ min_share
/// of active tenants > 1) the floors themselves are scaled down
/// proportionally — the contract is infeasible and degrades gracefully
/// rather than panicking mid-run.
///
/// # Panics
/// Panics if the slices disagree in length or any quota is invalid
/// ([`ShareQuota::is_valid`]); quotas are validated at admission, so an
/// invalid one reaching arbitration is a caller bug.
pub fn arbitrate(demand: &[f64], quotas: &[ShareQuota]) -> Vec<f64> {
    assert_eq!(
        demand.len(),
        quotas.len(),
        "one demand entry per quota entry"
    );
    for (i, q) in quotas.iter().enumerate() {
        assert!(q.is_valid(), "invalid quota for tenant {i}: {q:?}");
    }
    let n = demand.len();
    let mut shares = vec![0.0f64; n];
    if n == 0 {
        return shares;
    }
    // An inactive tenant (no demand) takes nothing and frees its floor.
    let active: Vec<usize> = (0..n)
        .filter(|&i| demand[i].is_finite() && demand[i] > ACTIVE_DEMAND || demand[i].is_infinite())
        .collect();
    if active.is_empty() {
        return shares;
    }
    // Oversubscribed floors: scale every floor down proportionally.
    let floor_sum: f64 = active.iter().map(|&i| quotas[i].min_share).sum();
    let floor_scale = if floor_sum > 1.0 {
        1.0 / floor_sum
    } else {
        1.0
    };

    // Each tenant's target: what it would take unconstrained — demand,
    // but never above its cap and never below its (scaled) floor.
    let target: Vec<f64> = (0..n)
        .map(|i| {
            if !active.contains(&i) {
                return 0.0;
            }
            let floor = quotas[i].min_share * floor_scale;
            demand[i].min(quotas[i].max_share).max(floor)
        })
        .collect();

    // Progressive filling: grant floors, then pour the remainder over
    // unsatisfied tenants by weight, freezing each as it hits its
    // target and re-pouring its unused weight. Terminates in ≤ n
    // rounds (every round freezes at least one tenant or exhausts the
    // pool).
    for &i in &active {
        shares[i] = quotas[i].min_share * floor_scale;
    }
    let mut remaining = 1.0 - shares.iter().sum::<f64>();
    let mut open: Vec<usize> = active
        .iter()
        .copied()
        .filter(|&i| target[i] - shares[i] > EPS)
        .collect();
    while remaining > EPS && !open.is_empty() {
        let weight_sum: f64 = open.iter().map(|&i| quotas[i].weight).sum();
        let mut froze = false;
        let mut poured = 0.0;
        for &i in &open {
            let offer = remaining * quotas[i].weight / weight_sum;
            let take = offer.min(target[i] - shares[i]);
            shares[i] += take;
            poured += take;
            if target[i] - shares[i] <= EPS {
                froze = true;
            }
        }
        remaining -= poured;
        if froze {
            open.retain(|&i| target[i] - shares[i] > EPS);
        } else {
            // Nobody froze: every open tenant absorbed its full offer,
            // so the pool is exhausted up to rounding.
            break;
        }
    }
    shares
}

/// The static fair split: what [`arbitrate`] grants when every tenant
/// demands the whole pool. Used where no window has been sensed yet
/// (a tenant just joined or left the pool).
pub fn fair_shares(quotas: &[ShareQuota]) -> Vec<f64> {
    arbitrate(&vec![f64::INFINITY; quotas.len()], quotas)
}

/// Idle windows a tenant may coast before its demand — and with it its
/// `min_share` floor — is released to the other tenants.
pub const IDLE_GRACE: u32 = 3;

/// What the arbiter observed about one tenant over one sensing window.
#[derive(Clone, Copy, Debug)]
pub struct TenantSignal {
    /// Items of this tenant currently queued in the pool's inboxes.
    pub backlog: u64,
    /// True if the tenant completed at least one item this window.
    pub progressed: bool,
    /// Consecutive fully idle windows so far (maintained by the
    /// caller; reset to zero whenever the tenant progresses or queues).
    pub idle_windows: u32,
    /// The share currently granted to the tenant.
    pub share: f64,
}

/// Derives each tenant's demand — the capacity fraction it could
/// productively use — from its window signal (see the module docs).
pub fn window_demands(signals: &[TenantSignal]) -> Vec<f64> {
    signals
        .iter()
        .map(|s| {
            if s.backlog > 0 {
                1.0
            } else if s.progressed || s.idle_windows < IDLE_GRACE {
                // Keeping up, or within the idle grace period: hold the
                // current grant (never squeeze a live tenant mid-burst).
                s.share
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn equal_tenants_split_evenly() {
        let q = vec![ShareQuota::default(); 4];
        let s = arbitrate(&[1.0; 4], &q);
        assert!(s.iter().all(|&x| close(x, 0.25)), "{s:?}");
        assert!(close(s.iter().sum::<f64>(), 1.0));
    }

    #[test]
    fn weights_divide_the_surplus() {
        let q = vec![ShareQuota::weighted(3.0), ShareQuota::weighted(1.0)];
        let s = arbitrate(&[1.0, 1.0], &q);
        assert!(close(s[0], 0.75) && close(s[1], 0.25), "{s:?}");
    }

    #[test]
    fn demand_limited_tenant_releases_capacity() {
        // Tenant 0 only wants 10%; tenant 1 absorbs the rest.
        let q = vec![ShareQuota::default(); 2];
        let s = arbitrate(&[0.1, 1.0], &q);
        assert!(close(s[0], 0.1) && close(s[1], 0.9), "{s:?}");
    }

    #[test]
    fn max_share_caps_a_greedy_tenant() {
        let q = vec![ShareQuota::bounded(0.0, 0.3), ShareQuota::default()];
        let s = arbitrate(&[1.0, 1.0], &q);
        assert!(close(s[0], 0.3) && close(s[1], 0.7), "{s:?}");
    }

    #[test]
    fn min_share_guarantees_a_floor_under_pressure() {
        // A heavy co-tenant cannot push tenant 0 under its floor.
        let q = vec![ShareQuota::bounded(0.4, 1.0), ShareQuota::weighted(100.0)];
        let s = arbitrate(&[1.0, 1.0], &q);
        assert!(s[0] >= 0.4 - 1e-9, "{s:?}");
        assert!(close(s.iter().sum::<f64>(), 1.0));
    }

    #[test]
    fn floor_holds_even_when_demand_is_below_it() {
        // An active tenant demanding less than its floor keeps the
        // floor — guarantees do not evaporate on a quiet window.
        let q = vec![ShareQuota::bounded(0.5, 1.0), ShareQuota::default()];
        let s = arbitrate(&[0.01, 1.0], &q);
        assert!(close(s[0], 0.5), "{s:?}");
        assert!(close(s[1], 0.5), "{s:?}");
    }

    #[test]
    fn inactive_tenant_takes_nothing_and_frees_its_floor() {
        let q = vec![ShareQuota::bounded(0.5, 1.0), ShareQuota::default()];
        let s = arbitrate(&[0.0, 1.0], &q);
        assert!(close(s[0], 0.0) && close(s[1], 1.0), "{s:?}");
    }

    #[test]
    fn oversubscribed_floors_scale_down_proportionally() {
        let q = vec![ShareQuota::bounded(0.8, 1.0), ShareQuota::bounded(0.8, 1.0)];
        let s = arbitrate(&[1.0, 1.0], &q);
        assert!(close(s[0], 0.5) && close(s[1], 0.5), "{s:?}");
        assert!(s.iter().sum::<f64>() <= 1.0 + 1e-9);
    }

    #[test]
    fn shares_never_exceed_the_pool() {
        let q = vec![
            ShareQuota::weighted(5.0),
            ShareQuota::bounded(0.2, 0.6),
            ShareQuota::default(),
        ];
        for demands in [[1.0, 1.0, 1.0], [0.5, 0.1, 0.9], [0.0, 1.0, 0.0]] {
            let s = arbitrate(&demands, &q);
            assert!(s.iter().sum::<f64>() <= 1.0 + 1e-9, "{demands:?} -> {s:?}");
            for (i, &x) in s.iter().enumerate() {
                assert!(x <= q[i].max_share + 1e-9, "{demands:?} -> {s:?}");
            }
        }
    }

    #[test]
    fn fair_shares_is_the_all_saturated_split() {
        let q = vec![ShareQuota::weighted(1.0), ShareQuota::weighted(3.0)];
        let s = fair_shares(&q);
        assert!(close(s[0], 0.25) && close(s[1], 0.75), "{s:?}");
    }

    #[test]
    fn single_tenant_gets_the_whole_pool() {
        let s = arbitrate(&[1.0], &[ShareQuota::default()]);
        assert!(close(s[0], 1.0), "{s:?}");
    }

    #[test]
    fn empty_cluster_arbitrates_to_nothing() {
        assert!(arbitrate(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid quota")]
    fn invalid_quota_is_rejected() {
        let q = ShareQuota {
            min_share: 0.9,
            max_share: 0.1,
            weight: 1.0,
        };
        arbitrate(&[1.0], &[q]);
    }

    #[test]
    #[should_panic(expected = "one demand entry per quota")]
    fn mismatched_lengths_are_rejected() {
        arbitrate(&[1.0], &[]);
    }
}
