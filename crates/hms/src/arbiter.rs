//! Multi-tenant DRAM arbitration: how one node's DRAM budget splits
//! among co-running tenants.
//!
//! Unimem (the paper) manages placement for *one* application; its node
//! DRAM service splits a node's DRAM statically among that application's
//! MPI processes (§3.3). A node serving several co-running applications
//! needs one decision above the per-application runtimes: given each
//! tenant's priority weight and its demand, how many bytes may its
//! knapsack use? [`split`] makes that decision. Its answer, the tenant's
//! *lease*, is a pure function of (budget, policy, weights, demands),
//! computed with integer arithmetic in tenant order. A tenant that is not
//! running asks for zero bytes and gets none. The tenancy layer in
//! `unimem::tenancy` calls [`split`] at every epoch and turns lease
//! movements into placement re-runs at phase boundaries.
//!
//! # Example
//!
//! ```
//! use unimem_hms::arbiter::{split, ArbiterPolicy};
//! use unimem_sim::Bytes;
//!
//! // A weight-3 solver and a weight-1 batch job each want 512 MiB of a
//! // 256 MiB node: the contended budget goes 3 : 1.
//! let asks = [(3, Bytes::mib(512)), (1, Bytes::mib(512))];
//! let leases = split(Bytes::mib(256), ArbiterPolicy::Priority, &asks).unwrap();
//! assert_eq!(leases, [Bytes::mib(192), Bytes::mib(64)]);
//! // A tenant that is not running asks for nothing and frees its share.
//! let asks = [(3, Bytes::ZERO), (1, Bytes::mib(512))];
//! let leases = split(Bytes::mib(256), ArbiterPolicy::Priority, &asks).unwrap();
//! assert_eq!(leases, [Bytes::ZERO, Bytes::mib(256)]);
//! ```

use unimem_sim::Bytes;

/// How [`split`] divides the DRAM budget among contending tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbiterPolicy {
    /// Equal shares, water-filled: a tenant whose demand is met early
    /// releases its surplus to the still-hungry ones.
    FairShare,
    /// Weighted shares (weight-proportional water-filling) — a weight-3
    /// tenant gets three times the share of a weight-1 tenant while both
    /// stay hungry.
    Priority,
    /// First-come-first-served in tenant order: earlier tenants take
    /// what they demand; later tenants get what is left.
    BestEffort,
}

impl ArbiterPolicy {
    /// Every policy, in report order.
    pub const ALL: [ArbiterPolicy; 3] = [
        ArbiterPolicy::FairShare,
        ArbiterPolicy::Priority,
        ArbiterPolicy::BestEffort,
    ];

    /// Stable lower-case name used in reports and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ArbiterPolicy::FairShare => "fair-share",
            ArbiterPolicy::Priority => "priority",
            ArbiterPolicy::BestEffort => "best-effort",
        }
    }

    /// Inverse of [`ArbiterPolicy::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<ArbiterPolicy> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == s.to_ascii_lowercase())
    }
}

/// Split `budget` bytes among tenants given as `(weight, demand)` pairs,
/// returning each tenant's lease in the same order. No lease exceeds its
/// demand, and the leases sum to `min(budget, Σ demand)`: the budget is
/// never overcommitted and never idles while a tenant wants more. Only
/// [`ArbiterPolicy::Priority`] reads the weights, but every weight must
/// be at least 1; a zero weight is an error naming the tenant's index.
pub fn split(
    budget: Bytes,
    policy: ArbiterPolicy,
    tenants: &[(u32, Bytes)],
) -> Result<Vec<Bytes>, String> {
    if let Some(i) = tenants.iter().position(|&(weight, _)| weight == 0) {
        return Err(format!("tenant {i}: weight must be >= 1"));
    }
    let want: Vec<u64> = tenants.iter().map(|&(_, demand)| demand.get()).collect();
    let mut grant = vec![0u64; tenants.len()];
    match policy {
        ArbiterPolicy::BestEffort => {
            let mut remaining = budget.get();
            for (g, &w) in grant.iter_mut().zip(&want) {
                *g = w.min(remaining);
                remaining -= *g;
            }
        }
        ArbiterPolicy::FairShare => {
            water_fill(&mut grant, &want, &vec![1u32; want.len()], budget.get());
        }
        ArbiterPolicy::Priority => {
            let weights: Vec<u32> = tenants.iter().map(|&(weight, _)| weight).collect();
            water_fill(&mut grant, &want, &weights, budget.get());
        }
    }
    Ok(grant.into_iter().map(Bytes).collect())
}

/// Weight-proportional water-filling of `remaining` bytes over tenants
/// with residual demands `want` (0 = not contending). Each round fully
/// satisfies every tenant whose weighted share covers its residual demand
/// and removes it from the contention set; when no tenant caps, one final
/// largest-remainder-free distribution (floor shares, then single bytes in
/// id order) ends the fill. Rounds are bounded by the tenant count, and
/// every step is integer arithmetic in id order — deterministic.
fn water_fill(grant: &mut [u64], want: &[u64], weights: &[u32], mut remaining: u64) {
    let mut want = want.to_vec();
    let mut unsat: Vec<usize> = (0..want.len()).filter(|&i| want[i] > 0).collect();
    while remaining > 0 && !unsat.is_empty() {
        let total_w: u128 = unsat.iter().map(|&i| u128::from(weights[i])).sum();
        let snapshot = remaining;
        let mut capped = Vec::new();
        for &i in &unsat {
            let share = (u128::from(snapshot) * u128::from(weights[i]) / total_w) as u64;
            if share >= want[i] {
                capped.push(i);
            }
        }
        if capped.is_empty() {
            // Nobody's demand is met this round: hand out the floor
            // shares, then the rounding leftover one byte at a time.
            for &i in &unsat {
                let share = ((u128::from(snapshot) * u128::from(weights[i]) / total_w) as u64)
                    .min(want[i])
                    .min(remaining);
                grant[i] += share;
                want[i] -= share;
                remaining -= share;
            }
            for &i in &unsat {
                if remaining == 0 {
                    break;
                }
                let one = 1u64.min(want[i]);
                grant[i] += one;
                want[i] -= one;
                remaining -= one;
            }
            break;
        }
        for i in capped {
            let take = want[i].min(remaining);
            grant[i] += take;
            want[i] -= take;
            remaining -= take;
        }
        unsat.retain(|&i| want[i] > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The leases of `asks` over a 1000-byte budget, as plain integers.
    fn leases(policy: ArbiterPolicy, asks: &[(u32, u64)]) -> Vec<u64> {
        let asks: Vec<(u32, Bytes)> = asks.iter().map(|&(w, d)| (w, Bytes(d))).collect();
        split(Bytes(1000), policy, &asks)
            .unwrap()
            .into_iter()
            .map(Bytes::get)
            .collect()
    }

    #[test]
    fn names_round_trip() {
        for p in ArbiterPolicy::ALL {
            assert_eq!(ArbiterPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(ArbiterPolicy::parse("strict"), None);
    }

    #[test]
    fn zero_weight_is_an_error() {
        for policy in ArbiterPolicy::ALL {
            let err = split(Bytes(1000), policy, &[(1, Bytes(10)), (0, Bytes(10))]).unwrap_err();
            assert!(err.contains("tenant 1") && err.contains("weight"), "{err}");
        }
        // Weight zero would divide by zero in the priority fill.
        assert!(split(Bytes(1000), ArbiterPolicy::Priority, &[(0, Bytes(10))]).is_err());
        assert_eq!(split(Bytes(1000), ArbiterPolicy::Priority, &[]), Ok(vec![]));
    }

    #[test]
    fn fair_share_splits_equally_and_water_fills() {
        // x is satisfied early; its surplus flows to y and z equally:
        // (1000 - 100) / 2 each.
        let got = leases(ArbiterPolicy::FairShare, &[(1, 100), (1, 800), (1, 800)]);
        assert_eq!(got, [100, 450, 450]);
        // Fair share ignores the weights.
        let got = leases(ArbiterPolicy::FairShare, &[(7, 800), (1, 800)]);
        assert_eq!(got, [500, 500]);
    }

    #[test]
    fn priority_weights_shape_the_contended_remainder() {
        let got = leases(ArbiterPolicy::Priority, &[(3, 2000), (1, 2000)]);
        assert_eq!(got, [750, 250]);
    }

    #[test]
    fn best_effort_is_first_come_first_served() {
        let got = leases(ArbiterPolicy::BestEffort, &[(1, 900), (1, 900)]);
        assert_eq!(got, [900, 100]);
    }

    #[test]
    fn deactivation_revokes_and_frees_the_lease() {
        // Both tenants running, then x finished: it asks for nothing, its
        // lease falls to zero and y takes the freed bytes.
        let got = leases(ArbiterPolicy::FairShare, &[(1, 800), (1, 800)]);
        assert_eq!(got, [500, 500]);
        let got = leases(ArbiterPolicy::FairShare, &[(1, 0), (1, 800)]);
        assert_eq!(got, [0, 800]);
    }

    #[test]
    fn rounding_never_loses_the_budget_to_starvation() {
        // 7 equal tenants over 10 bytes: floor shares are 1 each, the
        // 3-byte leftover goes to the earliest tenants.
        let asks = vec![(1, Bytes(100)); 7];
        let got = split(Bytes(10), ArbiterPolicy::FairShare, &asks).unwrap();
        let got: Vec<u64> = got.into_iter().map(Bytes::get).collect();
        assert_eq!(got, [2, 2, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn inactive_tenants_get_nothing() {
        for policy in ArbiterPolicy::ALL {
            assert_eq!(leases(policy, &[(1, 0)]), [0], "{}", policy.name());
            assert_eq!(leases(policy, &[(1, 0), (1, 10)]), [0, 10]);
            assert_eq!(leases(policy, &[(1, 10)]), [10]);
        }
    }
}
