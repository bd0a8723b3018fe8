//! # exes-shap
//!
//! A from-scratch Shapley-value engine for models over **binary feature masks**,
//! standing in for the SHAP library the ExES paper uses for factual
//! explanations.
//!
//! A "model" here is anything implementing [`MaskedModel`]: it maps a mask
//! (`true` = the feature keeps its original value, `false` = the feature is
//! removed / reverted to baseline) to a real-valued output. ExES instantiates
//! this with "rank the perturbed collaboration network and report the relevance
//! or membership status of one person".
//!
//! ExES calls [`shapley`], which runs one of two estimators under an optional
//! evaluation budget:
//!
//! * [`exact_shapley`] — full enumeration of all `2^M` coalitions, for at most
//!   [`EXACT_MAX_FEATURES`] features when they fit the budget (also the
//!   ground truth in tests),
//! * [`permutation_shapley`] — Monte-Carlo estimation over random feature
//!   orderings (unbiased, exactly efficient per sample), reporting
//!   per-feature confidence half-widths and stopping at whole-permutation
//!   boundaries when the budget runs out.
//!
//! ```
//! use exes_shap::{shapley, FnModel, ShapConfig};
//!
//! // A simple additive model: f(mask) = 3*x0 + 1*x1.
//! let model = FnModel::new(2, |mask: &[bool]| {
//!     3.0 * f64::from(mask[0]) + f64::from(mask[1])
//! });
//! let values = shapley(&model, &ShapConfig::default(), None).values;
//! assert!((values.value(0) - 3.0).abs() < 1e-9);
//! assert!((values.value(1) - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod explainer;
mod model;
mod permutation;
mod values;

pub use exact::exact_shapley;
pub use explainer::{shapley, ShapConfig, EXACT_MAX_FEATURES};
pub use model::{CachingModel, FnModel, MaskedModel};
pub use permutation::{permutation_shapley, SampledShap};
pub use values::ShapValues;
