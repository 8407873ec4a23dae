//! Fast paths against their slow oracles.
//!
//! `knapsack::solve` builds each prefix's Pareto front of (rounded size,
//! weight) and reconstructs from the fronts. It must return exactly what
//! the scalar DP, `solve_reference`, returns: the same chosen indices and
//! the same achieved-weight bits, so no placement and no report byte can
//! move. The cases reach 64 items, and a family of pairwise-distinct
//! sizes at granule 1 whose weights rise with size drives fronts to full
//! width. An ignored case runs thousands more instances of up to 128
//! items in release (`cargo test --release --test oracles -- --ignored`).
//! The scalar DP in turn must be optimal at granule resolution, which
//! `solve_exhaustive` checks by enumeration.

mod common;

use common::for_seeds;
use unimem_repro::runtime::knapsack::{
    granule_for, solve, solve_exhaustive, solve_reference, Item,
};
use unimem_repro::sim::{Bytes, DetRng};

/// One generated item: a roll that makes it hostile, its kind, a weight
/// magnitude, its size as a fraction of half the capacity, and a roll
/// that makes it a copy of the item before it.
type Draw = (f64, u8, f64, f64, f64);

/// `n` items' draws.
fn draws(n: usize, rng: &mut DetRng) -> Vec<Draw> {
    (0..n)
        .map(|_| {
            (
                rng.f64(),
                rng.u64() as u8,
                rng.range_f64(0.01, 10.0),
                rng.f64(),
                rng.f64(),
            )
        })
        .collect()
}

/// 0..=64 items, half the cases on each side of the old subset-sum limit
/// of 12; hostile items then push some of the larger ones back under it.
fn count(rng: &mut DetRng) -> usize {
    if rng.index(2) == 0 {
        rng.index(13)
    } else {
        13 + rng.index(52)
    }
}

/// Capacities with a granule of 1, and with a granule above 1 at KiB to
/// hundreds-of-MiB scale.
fn capacity(rng: &mut DetRng) -> u64 {
    (match rng.index(3) {
        0 => 1 + rng.index(4096),
        1 => 4097 + rng.index(1_048_576 - 4097),
        _ => 1_048_576 + rng.index((1 << 30) - 1_048_576),
    }) as u64
}

/// How `build` shapes the items that are neither copies nor hostile.
#[derive(Clone, Copy)]
enum Shape {
    /// Sizes at or a byte either side of granule multiples, with
    /// small-integer weights (distinct subsets tie) or free ones.
    Mixed,
    /// Pairwise-distinct sizes while the capacity has room for them, and
    /// weight ∝ size: at granule 1 every reachable size is on the front,
    /// so fronts reach full width.
    Wide,
}

/// Hostile kinds: zero, negative and NaN weight; a size above the
/// capacity; a size that fits in bytes but rounds past the rounded
/// capacity; and, when `zero_sizes`, a zero size.
fn build(
    draws: &[Draw],
    shape: Shape,
    hostile_share: f64,
    cap: u64,
    zero_sizes: bool,
) -> Vec<Item> {
    let granule = granule_for(Bytes(cap));
    let cap_g = cap / granule;
    let mut items: Vec<Item> = Vec::with_capacity(draws.len());
    for &(hostile, kind, magnitude, frac, copy) in draws {
        // Copies are the duplicated (weight, size) items of symmetric
        // ranks: the tie-break decides which of them is chosen.
        if let (true, Some(&last)) = (copy < 0.25, items.last()) {
            items.push(last);
            continue;
        }
        let k = 1 + (frac * cap_g as f64 / 2.0) as u64;
        let (mut size, mut weight) = match shape {
            // k·granule − 1, k·granule or k·granule + 1. Small integers
            // add exactly, so distinct subsets tie.
            Shape::Mixed => (
                (k * granule + u64::from(kind % 3) - 1).max(1),
                if kind / 3 % 2 == 0 {
                    (magnitude as u64 % 4 + 1) as f64
                } else {
                    magnitude
                },
            ),
            // Log-uniform, so small sizes fill the gaps between sums.
            Shape::Wide => {
                let mut size = (cap_g as f64 / 2.0).powf(frac).max(1.0) as u64 * granule;
                while size < cap && items.iter().any(|i| i.size.get() == size) {
                    size += 1;
                }
                (size, size as f64 * magnitude)
            }
        };
        if hostile < hostile_share {
            match kind / 6 % (5 + u8::from(zero_sizes)) {
                0 => weight = 0.0,
                1 => weight = -weight,
                2 => weight = f64::NAN,
                3 => size = cap + k,
                // Only possible when the capacity is no granule multiple.
                4 if cap % granule != 0 => size = cap_g * granule + 1 + k % (cap % granule),
                4 => size = cap,
                _ => size = 0,
            }
        }
        items.push(Item {
            weight,
            size: Bytes(size),
        });
    }
    items
}

/// `solve` returns the scalar DP's chosen indices and weight bits.
fn assert_matches_reference(items: &[Item], cap: u64) {
    let (chosen, weight) = solve(items, Bytes(cap));
    let (want, want_weight) = solve_reference(items, Bytes(cap));
    assert_eq!(chosen, want, "items {items:?} cap {cap}");
    assert_eq!(
        weight.to_bits(),
        want_weight.to_bits(),
        "items {items:?} cap {cap}"
    );
}

/// `solve` returns the scalar DP's indices and weight bits on 0..=64
/// items.
#[test]
fn solve_matches_the_reference_dp_bit_for_bit() {
    for_seeds("solve_matches_the_reference_dp_bit_for_bit", 1024, |rng| {
        let draws = draws(count(rng), rng);
        let hostile_share = rng.range_f64(0.0, 0.5);
        let cap = capacity(rng);
        assert_matches_reference(&build(&draws, Shape::Mixed, hostile_share, cap, true), cap);
    });
}

/// The same on full-width fronts: granule 1, 1..=64 items.
#[test]
fn solve_matches_the_reference_dp_on_full_width_fronts() {
    for_seeds(
        "solve_matches_the_reference_dp_on_full_width_fronts",
        64,
        |rng| {
            let draws = draws(1 + rng.index(64), rng);
            let hostile_share = rng.range_f64(0.0, 0.25);
            let cap = 1 + rng.index(4096) as u64;
            assert_matches_reference(&build(&draws, Shape::Wide, hostile_share, cap, true), cap);
        },
    );
}

/// Release-only (`--ignored`): both shapes on 0..=128 items, wide ones at
/// granule 1.
#[test]
#[ignore = "thousands of solves of up to 128 items; run in release"]
fn solve_matches_the_reference_dp_deep() {
    for_seeds("solve_matches_the_reference_dp_deep", 4096, |rng| {
        let draws = draws(rng.index(129), rng);
        let hostile_share = rng.range_f64(0.0, 0.5);
        let (shape, cap) = if rng.index(2) == 1 {
            (Shape::Wide, 1 + rng.index(4096) as u64)
        } else {
            (Shape::Mixed, capacity(rng))
        };
        assert_matches_reference(&build(&draws, shape, hostile_share, cap, true), cap);
    });
}

/// The scalar DP is optimal at granule resolution on 13..=16 items, past
/// the 12 that the brute-force case below covers. Zero sizes are left
/// out: the DP never takes them, enumeration would.
#[test]
fn reference_dp_matches_exhaustive_on_13_to_16_items() {
    for_seeds(
        "reference_dp_matches_exhaustive_on_13_to_16_items",
        48,
        |rng| {
            let draws = draws(13 + rng.index(4), rng);
            let hostile_share = rng.range_f64(0.0, 0.5);
            let cap = capacity(rng);
            let items = build(&draws, Shape::Mixed, hostile_share, cap, false);
            let granule = granule_for(Bytes(cap));
            let rounded: Vec<Item> = items
                .iter()
                .map(|i| Item {
                    weight: i.weight,
                    size: Bytes(i.size.get().div_ceil(granule)),
                })
                .collect();
            let (_, w_dp) = solve_reference(&items, Bytes(cap));
            let (_, w_gr) = solve_exhaustive(&rounded, Bytes(cap / granule));
            assert!(
                (w_dp - w_gr).abs() < 1e-9,
                "dp {w_dp} vs granule-exact exhaustive {w_gr} (granule {granule})"
            );
        },
    );
}

/// `solve` matches exhaustive search on every small instance.
#[test]
fn knapsack_matches_exhaustive() {
    for_seeds("knapsack_matches_exhaustive", 128, |rng| {
        let items: Vec<Item> = (0..1 + rng.index(9))
            .map(|_| Item {
                weight: rng.range_f64(-5.0, 10.0),
                size: Bytes(1 + rng.index(199) as u64),
            })
            .collect();
        let cap = 1 + rng.index(599) as u64;
        let (chosen, w_dp) = solve(&items, Bytes(cap));
        let (_, w_ex) = solve_exhaustive(&items, Bytes(cap));
        assert!((w_dp - w_ex).abs() < 1e-9, "dp {w_dp} vs exhaustive {w_ex}");
        // Chosen set must fit and produce the reported weight.
        let total: u64 = chosen.iter().map(|&i| items[i].size.get()).sum();
        assert!(total <= cap);
        let sum: f64 = chosen.iter().map(|&i| items[i].weight).sum();
        assert!((sum - w_dp).abs() < 1e-9);
    });
}

/// `solve` agrees with brute-force enumeration on every instance of up to
/// 12 items, with sizes spanning byte, KiB and MiB magnitudes in one
/// instance (each item picks its magnitude) so granule rounding,
/// zero-weight filtering and the empty instance all get exercised.
/// Complements `knapsack_matches_exhaustive` above, which stays within
/// one narrow size magnitude.
#[test]
fn knapsack_dp_matches_bruteforce_upto_12_items() {
    for_seeds("knapsack_dp_matches_bruteforce_upto_12_items", 256, |rng| {
        let items: Vec<Item> = (0..rng.index(13))
            .map(|_| Item {
                weight: rng.range_f64(-4.0, 8.0),
                size: Bytes(match rng.index(3) {
                    0 => 1 + rng.index(63),
                    1 => 1024 + rng.index(65_536 - 1024),
                    _ => 1_048_576 + rng.index(16_777_216 - 1_048_576),
                } as u64),
            })
            .collect();
        let cap = Bytes(match rng.index(3) {
            0 => 1 + rng.index(255),
            1 => 4096 + rng.index(262_144 - 4096),
            _ => 1_048_576 + rng.index(67_108_864 - 1_048_576),
        } as u64);
        let (chosen, w_dp) = solve(&items, cap);
        // The DP quantizes capacity into granules, rounding item sizes
        // *up* (never overcommitting): it solves the instance whose sizes
        // are ceil(size/granule) against capacity floor(cap/granule), and
        // must be exactly optimal there. For granule == 1 this is the
        // original instance.
        let granule = granule_for(cap);
        let rounded: Vec<Item> = items
            .iter()
            .map(|i| Item {
                weight: i.weight,
                size: Bytes(i.size.get().div_ceil(granule)),
            })
            .collect();
        let (_, w_gr) = solve_exhaustive(&rounded, Bytes(cap.get() / granule));
        assert!(
            (w_dp - w_gr).abs() < 1e-9,
            "dp {w_dp} vs granule-exact exhaustive {w_gr} (granule {granule})"
        );
        // And it never beats the unquantized optimum.
        let (_, w_ex) = solve_exhaustive(&items, cap);
        assert!(w_dp <= w_ex + 1e-9, "dp {w_dp} beats exhaustive {w_ex}?");
        // Whatever the DP chose must genuinely fit and add up.
        let total: u64 = chosen.iter().map(|&i| items[i].size.get()).sum();
        assert!(total <= cap.get(), "overcommitted {total} > {}", cap.get());
        let sum: f64 = chosen.iter().map(|&i| items[i].weight).sum();
        assert!((sum - w_dp).abs() < 1e-9);
        assert!(chosen.iter().all(|&i| items[i].weight > 0.0));
    });
}
