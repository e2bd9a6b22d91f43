//! # sca-baselines
//!
//! The two state-of-the-art CO-locating techniques the paper compares against
//! in Table II:
//!
//! * [`matched_filter::MatchedFilterLocator`] — the matched-filter approach of
//!   Barenghi et al. (reference \[10\] in the paper): correlate a previously
//!   acquired CO template against the trace and report correlation peaks.
//! * [`sad_template::SadTemplateLocator`] — the waveform/template-matching
//!   approach in the spirit of Trautmann et al. / Beckers et al. (references
//!   \[11\] and \[16\]): slide a template and report positions whose sum of
//!   absolute differences (SAD) falls below a threshold.
//!
//! Both techniques assume the CO power shape is (almost) rigid in time. The
//! random-delay countermeasure stretches every execution non-uniformly, which
//! is exactly why they collapse to 0 % hits in Table II while the CNN-based
//! locator keeps working.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matched_filter;
pub mod sad_template;

pub use matched_filter::MatchedFilterLocator;
pub use sad_template::SadTemplateLocator;

use sca_trace::Trace;

/// Common interface of the baseline locators (mirrors the signature of the
/// CNN-based locator so the Table II harness can treat them uniformly).
pub trait BaselineLocator {
    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Returns the located CO start samples in ascending order.
    fn locate(&self, trace: &Trace) -> Vec<usize>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_are_usable() {
        let template = vec![0.0, 1.0, 0.0];
        let locators: Vec<Box<dyn BaselineLocator>> = vec![
            Box::new(MatchedFilterLocator::new(template.clone(), 0.9, 4)),
            Box::new(SadTemplateLocator::new(template, 0.5, 4)),
        ];
        let trace = Trace::from_samples(vec![0.0; 16]);
        for locator in &locators {
            assert!(!locator.name().is_empty());
            let starts = locator.locate(&trace);
            assert!(starts.len() <= trace.len());
        }
    }
}
