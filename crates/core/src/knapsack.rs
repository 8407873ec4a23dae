//! 0-1 knapsack solver for placement decisions.
//!
//! "Given the DRAM size limitation, our data placement problem is to
//! maximize total weights of data objects in DRAM while satisfying the DRAM
//! size constraint. This is a 0-1 knapsack problem \[solved\] by dynamic
//! programming in pseudo-polynomial time." (§3.1.3)
//!
//! Sizes are bytes (up to hundreds of MiB), so the solver quantizes
//! capacity into at most [`MAX_GRANULES`] granules — items' sizes round
//! **up** (never overcommit DRAM), capacity rounds down, and optimality
//! holds at granule resolution, which is orders of magnitude finer than
//! object sizes. An item is *viable* when its weight is positive (leaving
//! an object in NVM costs nothing, and NaN never qualifies), its size is
//! non-zero and at most the capacity, and its rounded size fits the
//! rounded capacity. Nothing else is ever chosen.
//!
//! ## One exact path: Pareto fronts
//!
//! `best(items < k, c)`, the DP's table entry, is the largest weight sum
//! (from `0.0`, in index order) of a subset of the first `k` viable items
//! within rounded size `c`. Front `k` holds its steps: each (rounded
//! size, weight) of such a subset that no subset of equal or smaller size
//! beats, sizes ascending and weights strictly ascending. Front `k + 1`
//! merges front `k` with a copy shifted by item `k`'s rounded size and
//! weight, cut at the rounded capacity. Float addition is monotone, so
//! the copy's best at `c` is `best(items < k, c − s_k) + w_k` bit for bit
//! and every front holds its DP row exactly.
//!
//! As in the DP, the items are walked from the top down from the full
//! rounded capacity; item `k` is taken iff `best(items < k, c − s_k) +
//! w_k` strictly beats `best(items < k, c)` (binary searches in front
//! `k`), so a tie leaves the higher-index item out. With the last front's
//! weight at the rounded capacity, `solve` returns [`solve_reference`]'s
//! indices and weight bits.
//!
//! Placement items are objects and partition chunks that share a few
//! sizes: on the full sweep matrix at 192–320 MiB no front exceeds 153
//! entries, where the DP walked 4,097 columns per item. No front exceeds
//! `cap_g + 1` entries, so the bound stays the DP's O(n·cap_g); pairwise
//! distinct sizes with weights rising with size reach it and solve about
//! 4.5× slower than the DP (2.9 against 0.63 ms at 128 items). No caller's
//! items do.
//!
//! ## Oracles
//!
//! [`solve_reference`], the scalar DP `solve` replaced, stays unchanged
//! as its oracle; [`solve_exhaustive`] enumerates subsets in bytes and
//! checks the DP's optimality. `tests/oracles.rs` holds property tests.

use unimem_sim::Bytes;

/// One placement candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Eq. 5 weight (seconds of predicted saving; may be ≤ 0).
    pub weight: f64,
    pub size: Bytes,
}

/// Maximum number of capacity granules the DP table uses.
pub const MAX_GRANULES: usize = 4096;

/// The granule [`solve`] quantizes at for a given capacity: item sizes
/// round up to multiples of this, capacity rounds down. Exposed so tests
/// can state the DP's optimality contract at granule resolution without
/// duplicating the formula.
pub fn granule_for(capacity: Bytes) -> u64 {
    capacity.get().div_ceil(MAX_GRANULES as u64).max(1)
}

/// A viable item: its index in the caller's slice, weight and rounded size.
#[derive(Clone, Copy)]
struct Viable {
    index: usize,
    weight: f64,
    size_g: usize,
}

/// Solve the 0-1 knapsack: choose a subset of `items` with total size ≤
/// `capacity` maximizing total weight. Returns the chosen indices (sorted)
/// and the achieved weight. Items with `weight <= 0` are never chosen.
pub fn solve(items: &[Item], capacity: Bytes) -> (Vec<usize>, f64) {
    let (viable, cap_g) = viable(items, capacity);
    let (fronts, starts) = pareto_fronts(&viable, cap_g);
    // best(items < k, c): the last entry of front k within size c.
    let best = |k: usize, c: usize| {
        let front = &fronts[starts[k]..starts[k + 1]];
        front[front.partition_point(|&(s, _)| s <= c) - 1].1
    };
    let (mut c, mut chosen) = (cap_g, Vec::new());
    for (k, v) in viable.iter().enumerate().rev() {
        if v.size_g <= c && best(k, c - v.size_g) + v.weight > best(k, c) {
            chosen.push(v.index);
            c -= v.size_g;
        }
    }
    chosen.reverse();
    (chosen, fronts[fronts.len() - 1].1)
}

/// The viable items of `items`, and the capacity in granules.
fn viable(items: &[Item], capacity: Bytes) -> (Vec<Viable>, usize) {
    let granule = granule_for(capacity);
    let cap_g = (capacity.get() / granule) as usize;
    let viable = items
        .iter()
        .enumerate()
        .filter(|(_, it)| it.weight > 0.0 && !it.size.is_zero() && it.size <= capacity)
        .map(|(index, it)| Viable {
            index,
            weight: it.weight,
            size_g: it.size.get().div_ceil(granule) as usize,
        })
        .filter(|v| v.size_g <= cap_g)
        .collect();
    (viable, cap_g)
}

/// The (rounded size, weight) Pareto fronts of every prefix of `viable`
/// within `cap_g`, in one buffer: front `k` is `fronts[starts[k]..
/// starts[k + 1]]`, and every front starts with the empty set `(0, 0.0)`.
fn pareto_fronts(viable: &[Viable], cap_g: usize) -> (Vec<(usize, f64)>, Vec<usize>) {
    let mut fronts = vec![(0, 0.0)];
    let mut starts = vec![0, 1];
    for v in viable {
        let (lo, hi) = (starts[starts.len() - 2], fronts.len());
        fronts.push((0, 0.0));
        // Front k's rest (at i) merged with front k shifted (at j); only
        // entries heavier than the last one kept stay.
        let mut i = lo + 1;
        for j in lo..hi {
            let s = fronts[j].0 + v.size_g;
            if s > cap_g {
                break;
            }
            let mut w = fronts[j].1 + v.weight;
            while i < hi && fronts[i].0 <= s {
                let kept = fronts[i];
                i += 1;
                if kept.0 == s {
                    w = w.max(kept.1);
                } else if kept.1 > fronts[fronts.len() - 1].1 {
                    fronts.push(kept);
                }
            }
            if w > fronts[fronts.len() - 1].1 {
                fronts.push((s, w));
            }
        }
        // Front k's weights ascend: keep its rest from the first heavier.
        let last = fronts[fronts.len() - 1].1;
        let rest = i + fronts[i..hi].partition_point(|&(_, w)| w <= last);
        fronts.extend_from_within(rest..hi);
        starts.push(fronts.len());
    }
    (fronts, starts)
}

/// The scalar DP [`solve`] replaced on the hot path, kept unchanged as
/// the test oracle it must match in chosen indices and weight bits.
/// Nothing in the runtime calls it.
pub fn solve_reference(items: &[Item], capacity: Bytes) -> (Vec<usize>, f64) {
    let viable: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| it.weight > 0.0 && !it.size.is_zero() && it.size <= capacity)
        .map(|(i, _)| i)
        .collect();
    if viable.is_empty() || capacity.is_zero() {
        return (Vec::new(), 0.0);
    }

    // Granule: smallest power-of-two-free unit keeping the table bounded.
    let granule = granule_for(capacity);
    let cap_g = (capacity.get() / granule) as usize;
    // Size in granules, rounded up so a selection never exceeds capacity.
    let size_g: Vec<usize> = viable
        .iter()
        .map(|&i| (items[i].size.get().div_ceil(granule)) as usize)
        .collect();

    // DP over capacity (1-D reverse sweep). `took[k]` records, per capacity,
    // whether item k's pass improved the optimum there — i.e. whether the
    // optimum over items 0..=k at that capacity includes item k. That is
    // exactly the decision bit the standard 2-D reconstruction needs.
    let words = (cap_g + 1).div_ceil(64);
    let mut best = vec![0.0f64; cap_g + 1];
    let mut took = vec![vec![0u64; words]; viable.len()];
    for (k, &i) in viable.iter().enumerate() {
        let w = items[i].weight;
        let s = size_g[k];
        if s > cap_g {
            continue;
        }
        for c in (s..=cap_g).rev() {
            let cand = best[c - s] + w;
            if cand > best[c] {
                best[c] = cand;
                took[k][c / 64] |= 1 << (c % 64);
            }
        }
    }

    // total_cmp: the table only ever holds sums of finite positive weights
    // (NaN weights fail the `> 0.0` viability filter above), but the solver
    // must not be able to panic on adversarial input.
    let (mut c, _) = best
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty table");
    let achieved = best[c];
    let mut chosen = Vec::new();
    for k in (0..viable.len()).rev() {
        if took[k][c / 64] & (1 << (c % 64)) != 0 {
            chosen.push(viable[k]);
            c -= size_g[k];
        }
    }
    chosen.sort_unstable();
    (chosen, achieved)
}

/// Exhaustive reference solver for testing (n ≤ 20).
pub fn solve_exhaustive(items: &[Item], capacity: Bytes) -> (Vec<usize>, f64) {
    assert!(items.len() <= 20);
    let mut best_mask = 0usize;
    let mut best_w = 0.0f64;
    for mask in 0..(1usize << items.len()) {
        let mut size = 0u64;
        let mut w = 0.0;
        for (i, it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                size += it.size.get();
                w += it.weight;
            }
        }
        if size <= capacity.get() && w > best_w {
            best_w = w;
            best_mask = mask;
        }
    }
    let chosen = (0..items.len())
        .filter(|i| best_mask & (1 << i) != 0)
        .collect();
    (chosen, best_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn it(weight: f64, size: u64) -> Item {
        Item {
            weight,
            size: Bytes(size),
        }
    }

    #[test]
    fn picks_best_single_item() {
        let items = [it(1.0, 60), it(2.0, 60)];
        let (chosen, w) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![1]);
        assert!((w - 2.0).abs() < 1e-12);
    }

    #[test]
    fn picks_pair_over_heavier_single() {
        // Two items of weight 1.5 each beat one of weight 2.5 when all fit
        // pairwise but not all three.
        let items = [it(2.5, 80), it(1.5, 40), it(1.5, 40)];
        let (chosen, w) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![1, 2]);
        assert!((w - 3.0).abs() < 1e-12);
    }

    #[test]
    fn negative_weights_never_chosen() {
        let items = [it(-1.0, 10), it(0.0, 10), it(0.5, 10)];
        let (chosen, w) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![2]);
        assert!((w - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oversized_item_excluded() {
        let items = [it(10.0, 200), it(1.0, 50)];
        let (chosen, _) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![1]);
    }

    #[test]
    fn zero_capacity_chooses_nothing() {
        let items = [it(1.0, 1)];
        let (chosen, w) = solve(&items, Bytes(0));
        assert!(chosen.is_empty());
        assert_eq!(w, 0.0);
    }

    #[test]
    fn granule_rounding_never_overcommits() {
        // Capacity forces granule > 1; chosen sizes must still fit exactly.
        let cap = Bytes(1 << 24); // 16 MiB → granule 4 KiB
        let items: Vec<Item> = (0..10).map(|i| it(1.0 + i as f64, 3 << 20)).collect();
        let (chosen, _) = solve(&items, cap);
        let total: u64 = chosen.iter().map(|&i| items[i].size.get()).sum();
        assert!(total <= cap.get(), "overcommitted: {total}");
        assert_eq!(chosen.len(), 5); // 5 × 3 MiB = 15 MiB ≤ 16 MiB
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        // Deterministic pseudo-random instances.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..200 {
            let n = 1 + (next() % 10) as usize;
            let items: Vec<Item> = (0..n)
                .map(|_| {
                    let w = ((next() % 2000) as f64 - 500.0) / 100.0;
                    let s = 1 + next() % 128;
                    it(w, s)
                })
                .collect();
            let cap = Bytes(1 + next() % 512);
            let (_, w_dp) = solve(&items, cap);
            let (_, w_ex) = solve_exhaustive(&items, cap);
            assert!(
                (w_dp - w_ex).abs() < 1e-9,
                "trial {trial}: dp={w_dp} exhaustive={w_ex} items={items:?} cap={cap:?}"
            );
        }
    }

    #[test]
    fn nan_weights_are_filtered_not_fatal() {
        // NaN fails the `weight > 0.0` viability filter; the solver must
        // neither panic nor select the item.
        let items = [it(f64::NAN, 10), it(1.0, 10)];
        let (chosen, w) = solve(&items, Bytes(100));
        assert_eq!(chosen, vec![1]);
        assert!((w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_leave_out_the_higher_indices() {
        // At most ten identical items fit; the strict tie-break keeps the first.
        for n in [1, 12, 13, 64] {
            let items = vec![it(1.0, 10); n];
            let (chosen, w) = solve(&items, Bytes(100));
            assert_eq!(chosen, (0..n.min(10)).collect::<Vec<_>>(), "n = {n}");
            assert_eq!(w, n.min(10) as f64);
            assert_eq!(solve_reference(&items, Bytes(100)), (chosen, w));
        }
    }

    #[test]
    fn full_width_front_matches_the_reference() {
        // Sizes 1, 2, 4, …, 2^11 reach every size in 0..4096 exactly once,
        // and weights rising with size keep each one on the front.
        let items: Vec<Item> = (0..12).map(|b| it(0.1 * (1 << b) as f64, 1 << b)).collect();
        let cap = Bytes(4095);
        let (viable, cap_g) = viable(&items, cap);
        let (fronts, starts) = pareto_fronts(&viable, cap_g);
        assert_eq!(fronts.len() - starts[12], 4096);
        let (chosen, w) = solve(&items, cap);
        let (want, want_w) = solve_reference(&items, cap);
        assert_eq!((chosen, w.to_bits()), (want, want_w.to_bits()));
    }

    #[test]
    fn chosen_indices_refer_to_original_items() {
        let items = [it(-5.0, 10), it(3.0, 10), it(-1.0, 10), it(2.0, 10)];
        let (chosen, w) = solve(&items, Bytes(20));
        assert_eq!(chosen, vec![1, 3]);
        assert!((w - 5.0).abs() < 1e-12);
    }
}
