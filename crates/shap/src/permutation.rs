//! Monte-Carlo Shapley estimation over random feature permutations, under an
//! optional evaluation budget, with per-feature confidence half-widths.

use crate::{MaskedModel, ShapValues};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The z-score of a two-sided 95% normal confidence interval.
const Z_95: f64 = 1.96;

/// Most mask cells (coalitions × features) handed to one
/// [`MaskedModel::evaluate_batch`] call. A pass over `m` features asks `m`
/// coalitions of `m` cells, so 32 passes over up to 90 features fit one
/// call, and a wider feature set's passes go over several calls, keeping a
/// batch's masks and perturbation sets to a few megabytes.
const WALK_CELLS: usize = 1 << 18;

/// A Shapley estimate with uncertainty and budget accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledShap {
    /// The attribution estimate (over the completed permutations, when
    /// sampled).
    pub values: ShapValues,
    /// Per-feature 95% confidence half-widths (`z · s/√n` over the completed
    /// permutations' marginal contributions). `0.0` when fewer than two
    /// permutations completed — no variance estimate exists, not certainty —
    /// and for exact enumeration, which has no sampling noise.
    pub half_widths: Vec<f64>,
    /// How many whole permutations were completed (0 for exact enumeration).
    pub permutations_completed: usize,
    /// Model evaluations actually spent (never exceeds the budget).
    pub evaluations: usize,
    /// True when the evaluation budget cut sampling short of the requested
    /// permutation count.
    pub truncated: bool,
}

/// Estimates Shapley values by averaging marginal contributions along random
/// feature orderings (Castro et al.'s sampling estimator), under an
/// evaluation budget.
///
/// Runs up to `permutations` random-order passes, charging `M` evaluations
/// per pass plus two upfront (`base_value` + `full_value`). The passes'
/// coalitions are handed to [`MaskedModel::evaluate_batch`] together, in
/// pass order (a very wide feature set's passes over a few calls, to bound
/// memory), so a model that probes in parallel sees them at once. Each pass
/// is a
/// telescoping sum, so the efficiency axiom (`Σφ = f(full) − f(∅)`) holds
/// *exactly* for any number of completed passes; only per-feature variance
/// shrinks with more samples. Sampling stops *between* permutations, never
/// inside one, as soon as the next pass would exceed `max_evaluations`
/// (`None` means unbounded), and the per-pass marginal contributions give
/// every attribution a 95% confidence half-width.
///
/// A budget too small for even the two anchor evaluations yields the honest
/// degenerate: all-zero attributions, zero evaluations, `truncated: true`.
pub fn permutation_shapley<M: MaskedModel>(
    model: &M,
    permutations: usize,
    seed: u64,
    max_evaluations: Option<usize>,
) -> SampledShap {
    let m = model.num_features();
    let mut evaluations = 0usize;
    let fits = |used: usize, next: usize| max_evaluations.is_none_or(|max| used + next <= max);
    if m == 0 {
        if !fits(evaluations, 1) {
            return SampledShap {
                values: ShapValues::new(Vec::new(), 0.0, 0.0),
                half_widths: Vec::new(),
                permutations_completed: 0,
                evaluations: 0,
                truncated: true,
            };
        }
        let v = model.evaluate(&[]);
        return SampledShap {
            values: ShapValues::new(Vec::new(), v, v),
            half_widths: Vec::new(),
            permutations_completed: 0,
            evaluations: 1,
            truncated: false,
        };
    }
    let permutations = permutations.max(1);
    if !fits(evaluations, 2) {
        return SampledShap {
            values: ShapValues::new(vec![0.0; m], 0.0, 0.0),
            half_widths: vec![0.0; m],
            permutations_completed: 0,
            evaluations: 0,
            truncated: true,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let base_value = model.base_value();
    let full_value = model.full_value();
    evaluations += 2;
    // Every pass costs `m` evaluations, so the budget alone fixes how many
    // complete; the RNG fixes every pass's walk before any value is known.
    let completed = max_evaluations.map_or(permutations, |max| permutations.min((max - 2) / m));
    let passes_per_batch = (WALK_CELLS / m.saturating_mul(m)).max(1);

    let mut sums = vec![0.0; m];
    let mut sum_squares = vec![0.0; m];
    let mut order: Vec<usize> = (0..m).collect();
    let mut passes = 0usize;
    while passes < completed {
        let batch = passes_per_batch.min(completed - passes);
        let mut orders: Vec<Vec<usize>> = Vec::with_capacity(batch);
        let mut walks: Vec<Vec<bool>> = Vec::with_capacity(batch * m);
        for _ in 0..batch {
            order.shuffle(&mut rng);
            let mut mask = vec![false; m];
            for &feature in &order {
                mask[feature] = true;
                walks.push(mask.clone());
            }
            orders.push(order.clone());
        }
        let values = model.evaluate_batch(&walks);
        for (order, walk) in orders.iter().zip(values.chunks_exact(m)) {
            let mut previous = base_value;
            for (&feature, &current) in order.iter().zip(walk) {
                sums[feature] += current - previous;
                sum_squares[feature] += (current - previous) * (current - previous);
                previous = current;
            }
        }
        passes += batch;
    }
    evaluations += completed * m;

    let values: Vec<f64> = if completed == 0 {
        vec![0.0; m]
    } else {
        sums.iter().map(|s| s / completed as f64).collect()
    };
    let half_widths: Vec<f64> = if completed < 2 {
        vec![0.0; m]
    } else {
        let n = completed as f64;
        sums.iter()
            .zip(&sum_squares)
            .map(|(&sum, &sq)| {
                let variance = ((sq - sum * sum / n) / (n - 1.0)).max(0.0);
                Z_95 * (variance / n).sqrt()
            })
            .collect()
    };
    SampledShap {
        values: ShapValues::new(values, base_value, full_value),
        half_widths,
        permutations_completed: completed,
        evaluations,
        truncated: completed < permutations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_shapley, shapley, CachingModel, FnModel, ShapConfig};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn interacting_model() -> FnModel<impl Fn(&[bool]) -> f64> {
        FnModel::new(5, |mask: &[bool]| {
            let x: Vec<f64> = mask.iter().map(|&b| f64::from(b)).collect();
            3.0 * x[0] + x[1] * x[2] * 2.0 - x[3] + 0.5 * x[4] * x[0]
        })
    }

    /// Twelve features: above the exact-enumeration limit, with interactions
    /// so the sampled half-widths are not all zero, and with weights that
    /// are not binary fractions, so every rounding step shows in the bits.
    fn wide_model() -> FnModel<impl Fn(&[bool]) -> f64> {
        FnModel::new(12, |mask: &[bool]| {
            let x: Vec<f64> = mask.iter().map(|&b| f64::from(b)).collect();
            let additive: f64 = x
                .iter()
                .enumerate()
                .map(|(i, v)| 0.1 * (i + 1) as f64 * v)
                .sum();
            additive + 0.7 * x[0] * x[11] - x[3] * x[7] / 3.0 + 0.3 * x[5] * x[6] * x[9]
        })
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Pins the RNG stream and the summation order of both the sampler and
    /// the selector: any change to either moves every served factual answer.
    #[test]
    fn sampler_and_selector_reproduce_frozen_bits() {
        let five = interacting_model();
        let twelve = wide_model();

        let unbounded = permutation_shapley(&five, 64, 0x5A4B, None);
        assert_eq!(
            bits(unbounded.values.values()),
            [
                0x4009e00000000000,
                0x3ff3000000000000,
                0x3fea000000000000,
                0xbff0000000000000,
                0x3fd1000000000000,
            ]
        );
        assert_eq!(
            bits(&unbounded.half_widths),
            [
                0x3faf8bce272455ba,
                0x3fcf0c1dd499bce9,
                0x3fcf0c1dd499bce9,
                0x0000000000000000,
                0x3faf8bce272455ba,
            ]
        );
        assert_eq!(
            (unbounded.permutations_completed, unbounded.evaluations),
            (64, 322)
        );
        assert!(!unbounded.truncated);

        let budgeted = permutation_shapley(&five, 10, 9, Some(19));
        assert_eq!(
            bits(budgeted.values.values()),
            [
                0x4009555555555555,
                0x0000000000000000,
                0x4000000000000000,
                0xbff0000000000000,
                0x3fd5555555555555,
            ]
        );
        assert_eq!(
            bits(&budgeted.half_widths),
            [
                0x3fd4e81b4e81b4fd,
                0x0000000000000000,
                0x0000000000000000,
                0x0000000000000000,
                0x3fd4e81b4e81b4e9,
            ]
        );

        let exact = shapley(&five, &ShapConfig::default(), None);
        assert_eq!(
            bits(exact.values.values()),
            [
                0x400a000000000001,
                0x3ff0000000000000,
                0x3ff0000000000000,
                0xbff0000000000000,
                0x3fd0000000000000,
            ]
        );
        assert_eq!(bits(&exact.half_widths), [0; 5]);
        assert_eq!((exact.permutations_completed, exact.evaluations), (0, 32));

        let sampled = shapley(&twelve, &ShapConfig::default(), None);
        assert_eq!(
            bits(sampled.values.values()),
            [
                0x3fd899999999999f,
                0x3fc99999999999a1,
                0x3fd3333333333335,
                0x3fcddddddddddde8,
                0x3fe0000000000000,
                0x3fe6800000000003,
                0x3fe8800000000000,
                0x3fe4444444444448,
                0x3fecccccccccccc8,
                0x3ff219999999999a,
                0x3ff199999999999d,
                0x3ff9d99999999999,
            ]
        );
        assert_eq!(
            bits(&sampled.half_widths),
            [
                0x3fbefb6f0123a09a,
                0x0000000000000000,
                0x0000000000000000,
                0x3fae0a22459dec8d,
                0x3e268799b436716f,
                0x3fa9ae7ec9d4c176,
                0x3fa65a5d16986b9b,
                0x3fae0a22459dec74,
                0x3e468799b436716f,
                0x3faad2d61b1d4ca3,
                0x0000000000000000,
                0x3fbefb6f0123a098,
            ]
        );
        assert_eq!(
            (sampled.permutations_completed, sampled.evaluations),
            (32, 386)
        );
        for result in [&unbounded, &budgeted, &exact, &sampled] {
            assert_eq!(result.values.base_value().to_bits(), 0);
        }
        assert_eq!(unbounded.values.full_value().to_bits(), 0x4012000000000000);
        assert_eq!(sampled.values.full_value().to_bits(), 0x4020eeeeeeeeeef0);
    }

    #[test]
    fn estimates_converge_to_exact_values() {
        let model = interacting_model();
        let exact = exact_shapley(&model);
        let approx = permutation_shapley(&model, 2000, 7, None).values;
        for i in 0..5 {
            assert!(
                (exact.value(i) - approx.value(i)).abs() < 0.1,
                "feature {i}: exact {} vs approx {}",
                exact.value(i),
                approx.value(i)
            );
        }
    }

    #[test]
    fn efficiency_holds_even_with_one_permutation() {
        let model = interacting_model();
        let v = permutation_shapley(&model, 1, 3, None).values;
        assert!(v.efficiency_gap() < 1e-9);
        // So does a sample the budget cut short.
        let cut = permutation_shapley(&model, 10, 9, Some(19));
        assert!(cut.truncated);
        assert!(cut.values.efficiency_gap() < 1e-9);
    }

    #[test]
    fn additive_model_is_exact_with_any_sample_count() {
        let model = FnModel::new(3, |mask: &[bool]| {
            4.0 * f64::from(mask[0]) - 2.0 * f64::from(mask[1]) + f64::from(mask[2])
        });
        let v = permutation_shapley(&model, 1, 11, None).values;
        assert!((v.value(0) - 4.0).abs() < 1e-12);
        assert!((v.value(1) + 2.0).abs() < 1e-12);
        assert!((v.value(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn additive_model_has_zero_width_intervals() {
        let model = FnModel::new(3, |mask: &[bool]| {
            4.0 * f64::from(mask[0]) - 2.0 * f64::from(mask[1]) + f64::from(mask[2])
        });
        let sampled = permutation_shapley(&model, 16, 7, None);
        // Marginal contributions are order-independent: no sampling variance.
        assert!(sampled.half_widths.iter().all(|&w| w < 1e-9));
    }

    #[test]
    fn deterministic_per_seed() {
        let model = interacting_model();
        let a = permutation_shapley(&model, 50, 5, None);
        let b = permutation_shapley(&model, 50, 5, None);
        assert_eq!(a, b);
        let c = permutation_shapley(&model, 50, 6, None);
        assert_ne!(a.values, c.values);
    }

    #[test]
    fn budget_truncates_at_whole_permutation_boundaries() {
        let model = interacting_model();
        // 2 anchors + 3 full permutations of 5 evals fit in 17; a 4th doesn't.
        let sampled = permutation_shapley(&model, 10, 9, Some(19));
        assert!(sampled.truncated);
        assert_eq!(sampled.permutations_completed, 3);
        assert_eq!(sampled.evaluations, 17);
        // The estimate over the completed prefix matches an unbounded run
        // that asked for exactly that many permutations (same RNG prefix).
        let reference = permutation_shapley(&model, 3, 9, None);
        assert!(!reference.truncated);
        assert_eq!(sampled.values, reference.values);
    }

    #[test]
    fn budget_is_never_exceeded() {
        let counter = AtomicUsize::new(0);
        let model = FnModel::new(4, |mask: &[bool]| {
            counter.fetch_add(1, Ordering::Relaxed);
            mask.iter().filter(|&&b| b).count() as f64
        });
        for budget in 0..30 {
            counter.store(0, Ordering::Relaxed);
            let sampled = permutation_shapley(&model, 5, 1, Some(budget));
            let spent = counter.load(Ordering::Relaxed);
            assert!(spent <= budget, "budget {budget}: spent {spent}");
            assert_eq!(sampled.evaluations, spent);
        }
    }

    /// A model that records every coalition it is asked, in order, and the
    /// size of every batch.
    struct Recording<M> {
        inner: M,
        asked: RefCell<Vec<Vec<bool>>>,
        batches: RefCell<Vec<usize>>,
    }

    impl<M: MaskedModel> MaskedModel for Recording<M> {
        fn num_features(&self) -> usize {
            self.inner.num_features()
        }

        fn evaluate(&self, mask: &[bool]) -> f64 {
            self.asked.borrow_mut().push(mask.to_vec());
            self.inner.evaluate(mask)
        }

        fn evaluate_batch(&self, masks: &[Vec<bool>]) -> Vec<f64> {
            self.batches.borrow_mut().push(masks.len());
            masks.iter().map(|mask| self.evaluate(mask)).collect()
        }
    }

    /// The coalitions the sampler asked one at a time before it batched its
    /// passes: the two anchors, then each affordable pass's walk.
    fn asked_one_at_a_time(
        m: usize,
        permutations: usize,
        seed: u64,
        max: Option<usize>,
    ) -> Vec<Vec<bool>> {
        let mut asked = vec![vec![false; m], vec![true; m]];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..m).collect();
        for _ in 0..permutations {
            if max.is_some_and(|max| asked.len() + m > max) {
                break;
            }
            order.shuffle(&mut rng);
            let mut mask = vec![false; m];
            for &feature in &order {
                mask[feature] = true;
                asked.push(mask.clone());
            }
        }
        asked
    }

    #[test]
    fn batched_passes_ask_the_one_at_a_time_coalitions() {
        for (permutations, seed, max) in [(64, 0x5A4B, None), (10, 9, Some(19)), (8, 3, Some(41))] {
            let model = Recording {
                inner: wide_model(),
                asked: RefCell::default(),
                batches: RefCell::default(),
            };
            let sampled = permutation_shapley(&model, permutations, seed, max);
            let expected = asked_one_at_a_time(12, permutations, seed, max);
            assert_eq!(
                *model.asked.borrow(),
                expected,
                "{permutations} passes, budget {max:?}"
            );
            assert_eq!(sampled.evaluations, expected.len());
            // All passes in one batch.
            assert_eq!(
                *model.batches.borrow(),
                [12 * sampled.permutations_completed]
            );
        }
        // More passes than one batch may hold: whole passes per batch, in
        // the same order.
        let per_batch = WALK_CELLS / (12 * 12);
        let model = Recording {
            inner: wide_model(),
            asked: RefCell::default(),
            batches: RefCell::default(),
        };
        permutation_shapley(&model, per_batch + 3, 1, None);
        assert_eq!(
            *model.asked.borrow(),
            asked_one_at_a_time(12, per_batch + 3, 1, None)
        );
        assert_eq!(*model.batches.borrow(), [12 * per_batch, 12 * 3]);
    }

    #[test]
    fn zero_budget_returns_the_honest_degenerate() {
        let model = interacting_model();
        let sampled = permutation_shapley(&model, 8, 2, Some(0));
        assert!(sampled.truncated);
        assert_eq!(sampled.permutations_completed, 0);
        assert_eq!(sampled.evaluations, 0);
        assert!(sampled.values.values().iter().all(|&v| v == 0.0));
        assert!(sampled.half_widths.iter().all(|&w| w == 0.0));
    }

    #[test]
    fn half_widths_shrink_with_more_permutations() {
        let model = CachingModel::new(interacting_model());
        let small = permutation_shapley(&model, 20, 5, None);
        let large = permutation_shapley(&model, 500, 5, None);
        // Feature 0 interacts with feature 4, so its contribution varies
        // across orderings; more samples must tighten the interval.
        assert!(small.half_widths[0] > 0.0);
        assert!(large.half_widths[0] < small.half_widths[0]);
    }

    #[test]
    fn zero_features_are_handled() {
        let model = FnModel::new(0, |_: &[bool]| 3.0);
        let sampled = permutation_shapley(&model, 10, 1, None);
        assert!(sampled.values.is_empty());
        assert_eq!(sampled.values.base_value(), 3.0);
        assert_eq!(sampled.evaluations, 1);
        assert!(!sampled.truncated);
    }

    #[test]
    fn zero_features_under_a_budget_are_handled() {
        let model = FnModel::new(0, |_: &[bool]| 3.0);
        let sampled = permutation_shapley(&model, 10, 1, Some(5));
        assert!(sampled.values.is_empty());
        assert_eq!(sampled.values.base_value(), 3.0);
        assert_eq!(sampled.evaluations, 1);
        assert!(!sampled.truncated);
    }
}
