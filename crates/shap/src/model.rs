//! The masked-model abstraction that Shapley estimators evaluate.

use rustc_hash::FxHashMap;
use std::sync::Mutex;

/// A model defined over `M` binary features.
///
/// `mask[i] == true` means feature `i` is *present* (keeps its original value);
/// `false` means it is *absent* (masked out / reverted to a baseline). The
/// Shapley value of feature `i` measures its average marginal contribution to
/// the model output across all coalitions of the other features.
pub trait MaskedModel {
    /// Number of features `M`.
    fn num_features(&self) -> usize;

    /// Evaluates the model under the given mask. `mask.len() == num_features()`.
    fn evaluate(&self, mask: &[bool]) -> f64;

    /// Evaluates many masks at once, returning one output per mask in order.
    ///
    /// The default maps [`MaskedModel::evaluate`] sequentially. Models whose
    /// evaluations are expensive independent probes override this to batch
    /// them — ExES routes it into the parallel probe engine — but the outputs
    /// must be identical to per-mask evaluation either way.
    fn evaluate_batch(&self, masks: &[Vec<bool>]) -> Vec<f64> {
        masks.iter().map(|m| self.evaluate(m)).collect()
    }

    /// Model output with every feature present.
    fn full_value(&self) -> f64 {
        self.evaluate(&vec![true; self.num_features()])
    }

    /// Model output with every feature absent (the base value of a force plot).
    fn base_value(&self) -> f64 {
        self.evaluate(&vec![false; self.num_features()])
    }
}

/// A [`MaskedModel`] backed by a closure.
pub struct FnModel<F> {
    num_features: usize,
    f: F,
}

impl<F: Fn(&[bool]) -> f64> FnModel<F> {
    /// Wraps a closure over masks.
    pub fn new(num_features: usize, f: F) -> Self {
        FnModel { num_features, f }
    }
}

impl<F: Fn(&[bool]) -> f64> MaskedModel for FnModel<F> {
    fn num_features(&self) -> usize {
        self.num_features
    }

    fn evaluate(&self, mask: &[bool]) -> f64 {
        debug_assert_eq!(mask.len(), self.num_features);
        (self.f)(mask)
    }
}

/// A memoising wrapper: caches evaluations keyed by the mask bits.
///
/// Shapley estimators evaluate many repeated coalitions (the empty and full
/// coalitions in particular); when the underlying model is an expensive
/// ranking call this cache is the difference between seconds and minutes.
pub struct CachingModel<M> {
    inner: M,
    cache: Mutex<FxHashMap<Vec<bool>, f64>>,
}

impl<M: MaskedModel> CachingModel<M> {
    /// Wraps a model with a memo table.
    pub fn new(inner: M) -> Self {
        CachingModel {
            inner,
            cache: Mutex::new(FxHashMap::default()),
        }
    }

    /// Number of *distinct* evaluations forwarded to the wrapped model.
    pub fn distinct_evaluations(&self) -> usize {
        self.cache.lock().expect("cache poisoned").len()
    }

    /// Consumes the wrapper, returning the inner model.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: MaskedModel> MaskedModel for CachingModel<M> {
    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn evaluate(&self, mask: &[bool]) -> f64 {
        if let Some(&v) = self.cache.lock().expect("cache poisoned").get(mask) {
            return v;
        }
        let v = self.inner.evaluate(mask);
        self.cache
            .lock()
            .expect("cache poisoned")
            .insert(mask.to_vec(), v);
        v
    }

    /// Batch evaluation that only forwards cache misses (deduplicated within
    /// the batch) to the wrapped model's own `evaluate_batch`, so an inner
    /// parallel implementation sees each distinct coalition exactly once.
    fn evaluate_batch(&self, masks: &[Vec<bool>]) -> Vec<f64> {
        // Each mask's memoised value, or its position among the misses.
        let mut slots: Vec<Result<f64, usize>> = Vec::with_capacity(masks.len());
        let mut misses: Vec<Vec<bool>> = Vec::new();
        {
            let cache = self.cache.lock().expect("cache poisoned");
            let mut seen: FxHashMap<&[bool], usize> = FxHashMap::default();
            for mask in masks {
                slots.push(match cache.get(mask) {
                    Some(&v) => Ok(v),
                    None => Err(*seen.entry(mask).or_insert_with(|| {
                        misses.push(mask.clone());
                        misses.len() - 1
                    })),
                });
            }
        }
        if misses.is_empty() {
            return slots
                .into_iter()
                .map(|slot| slot.unwrap_or_default())
                .collect();
        }
        let outputs = self.inner.evaluate_batch(&misses);
        let mut cache = self.cache.lock().expect("cache poisoned");
        for (mask, &v) in misses.into_iter().zip(&outputs) {
            cache.insert(mask, v);
        }
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|miss| outputs[miss]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A model over two features that counts the evaluations reaching it.
    fn counted(calls: &Cell<usize>) -> FnModel<impl Fn(&[bool]) -> f64 + '_> {
        FnModel::new(2, move |mask: &[bool]| {
            calls.set(calls.get() + 1);
            f64::from(mask[0]) * 2.0 + f64::from(mask[1])
        })
    }

    #[test]
    fn fn_model_evaluates_closure() {
        let m = FnModel::new(3, |mask: &[bool]| {
            mask.iter().filter(|&&b| b).count() as f64
        });
        assert_eq!(m.num_features(), 3);
        assert_eq!(m.evaluate(&[true, false, true]), 2.0);
        assert_eq!(m.full_value(), 3.0);
        assert_eq!(m.base_value(), 0.0);
    }

    #[test]
    fn caching_model_deduplicates_calls() {
        let calls = Cell::new(0);
        let m = CachingModel::new(counted(&calls));
        assert_eq!(m.evaluate(&[true, false]), 2.0);
        assert_eq!(m.evaluate(&[true, false]), 2.0);
        assert_eq!(m.evaluate(&[false, true]), 1.0);
        assert_eq!(m.distinct_evaluations(), 2);
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn caching_model_is_transparent() {
        let inner = FnModel::new(
            2,
            |mask: &[bool]| if mask[0] && mask[1] { 5.0 } else { 0.0 },
        );
        let cached = CachingModel::new(inner);
        assert_eq!(cached.full_value(), 5.0);
        assert_eq!(cached.base_value(), 0.0);
        assert_eq!(cached.num_features(), 2);
    }

    #[test]
    fn batch_evaluation_matches_sequential_and_dedups() {
        let calls = Cell::new(0);
        let m = CachingModel::new(counted(&calls));
        let masks = vec![
            vec![true, false],
            vec![true, false],
            vec![false, true],
            vec![true, true],
        ];
        let batch = m.evaluate_batch(&masks);
        assert_eq!(batch, vec![2.0, 2.0, 1.0, 3.0]);
        // 4 requests, 3 distinct coalitions reach the wrapped model.
        assert_eq!(calls.get(), 3);
        assert_eq!(m.distinct_evaluations(), 3);
        // Repeating the batch is pure cache hits.
        assert_eq!(m.evaluate_batch(&masks), batch);
        assert_eq!(calls.get(), 3);
    }
}
