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
//! ## Two exact paths
//!
//! [`solve`] runs one of two solvers over the viable items:
//!
//! * **Up to 12 items: subset sums.** Every subset's weight and rounded
//!   size, built by adding the subset's highest-index item last — the
//!   order in which the DP adds weights, so each sum has the DP's bits.
//! * **More items: the DP, branch-free.** The same table update over two
//!   buffers, with each row's decision bits packed 64 to a word.
//!
//! Both share the DP's rounding and tie-break, so both return its indices
//! and weight bits. `best(items < k, c)` is the largest weight sum, from
//! `0.0` in index order, of a subset of the first `k` items within rounded
//! size `c`. Float addition is monotone, so that is exactly the DP's table
//! entry; it never decreases in `c`, so the table's last maximum, where
//! the DP's reconstruction starts, is the full rounded capacity. From
//! there the items are walked from the top down, taking item `k` iff
//! `best(items < k, c − s_k) + w_k > best(items < k, c)`. The `>` is
//! strict: on a tie the set without the higher-index item wins. The
//! achieved weight is the chosen set's sum.
//!
//! ## Oracles
//!
//! [`solve_reference`] is the scalar DP `solve` replaced; it stays
//! unchanged as the oracle both paths must match in indices and weight
//! bits. [`solve_exhaustive`] enumerates subsets in bytes and checks the
//! DP's optimality. `tests/oracles.rs` holds the property tests.

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

/// Most viable items the subset-sum path takes: its 2^12 sums cost about
/// one DP row.
const SMALL_N: usize = 12;

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
    let granule = granule_for(capacity);
    let cap_g = (capacity.get() / granule) as usize;
    let viable: Vec<Viable> = items
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
    let (mut chosen, achieved) = match viable.len() {
        0 => return (Vec::new(), 0.0),
        n if n <= SMALL_N => solve_subsets(&viable, cap_g),
        _ => solve_dense(&viable, cap_g),
    };
    // Both paths reconstruct from the top index down.
    chosen.reverse();
    (chosen, achieved)
}

/// The subset-sum path for at most [`SMALL_N`] items.
fn solve_subsets(viable: &[Viable], cap_g: usize) -> (Vec<usize>, f64) {
    // Entry m is the (weight sum, rounded size) of the subset whose bit k
    // marks item k. Doubling the list per item adds each subset's top item
    // last, as the DP does.
    let mut subsets: Vec<(f64, usize)> = Vec::with_capacity(1 << viable.len());
    subsets.push((0.0, 0));
    for v in viable {
        for m in 0..subsets.len() {
            let (w, s) = subsets[m];
            subsets.push((w + v.weight, s + v.size_g));
        }
    }
    // best(items < k, c): the first 2^k entries are those subsets.
    let best = |k: usize, c: usize| {
        subsets[..1 << k]
            .iter()
            .filter(|&&(_, s)| s <= c)
            .fold(0.0f64, |b, &(w, _)| b.max(w))
    };
    let (mut c, mut mask) = (cap_g, 0usize);
    let mut chosen = Vec::new();
    for (k, v) in viable.iter().enumerate().rev() {
        if v.size_g <= c && best(k, c - v.size_g) + v.weight > best(k, c) {
            chosen.push(v.index);
            c -= v.size_g;
            mask |= 1 << k;
        }
    }
    (chosen, subsets[mask].0)
}

/// The DP over capacity `0..=cap_g` for more than [`SMALL_N`] items.
fn solve_dense(viable: &[Viable], cap_g: usize) -> (Vec<usize>, f64) {
    let len = cap_g + 1;
    let words = len.div_ceil(64);
    let mut best = vec![0.0f64; len];
    let mut next = vec![0.0f64; len];
    // Bit c of row k: item k's pass improved capacity c, i.e. the optimum
    // over items 0..=k there includes item k.
    let mut took = vec![0u64; viable.len() * words];
    for (v, row) in viable.iter().zip(took.chunks_exact_mut(words)) {
        let (w, s) = (v.weight, v.size_g);
        next[..s].copy_from_slice(&best[..s]);
        for (j, bits) in row.iter_mut().enumerate().skip(s / 64) {
            let (lo, hi) = ((64 * j).max(s), (64 * j + 64).min(len));
            let mut word = 0u64;
            for c in lo..hi {
                let cand = best[c - s] + w;
                let take = cand > best[c];
                next[c] = if take { cand } else { best[c] };
                word |= u64::from(take) << (c % 64);
            }
            *bits = word;
        }
        std::mem::swap(&mut best, &mut next);
    }
    let mut c = cap_g;
    let mut chosen = Vec::new();
    for (v, row) in viable.iter().zip(took.chunks_exact(words)).rev() {
        if row[c / 64] >> (c % 64) & 1 == 1 {
            chosen.push(v.index);
            c -= v.size_g;
        }
    }
    (chosen, best[cap_g])
}

/// The scalar DP [`solve`] replaced on the hot path, kept unchanged as
/// the test oracle both of its paths must match in chosen indices and
/// weight bits. Nothing in the runtime calls it.
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
    fn ties_leave_out_the_higher_indices_on_both_paths() {
        // Ten of n identical items fit; the strict tie-break keeps the
        // first ten. n = 12 takes the subset path, n = 13 the dense DP.
        for n in [SMALL_N, SMALL_N + 1] {
            let items = vec![it(1.0, 10); n];
            let (chosen, w) = solve(&items, Bytes(100));
            assert_eq!(chosen, (0..10).collect::<Vec<_>>(), "n = {n}");
            assert_eq!(w, 10.0);
            assert_eq!(solve_reference(&items, Bytes(100)), (chosen, w));
        }
    }

    #[test]
    fn chosen_indices_refer_to_original_items() {
        let items = [it(-5.0, 10), it(3.0, 10), it(-1.0, 10), it(2.0, 10)];
        let (chosen, w) = solve(&items, Bytes(20));
        assert_eq!(chosen, vec![1, 3]);
        assert!((w - 5.0).abs() < 1e-12);
    }
}
