//! # nistats — measurement methodology for the near-ideal-noc harness
//!
//! A small statistics toolkit mirroring the paper's SimFlex-style
//! methodology (Section IV-D): warm up, measure over a window, repeat over
//! independent samples, and report means with 95% confidence intervals.
//! Also provides the geometric mean used for the figures' `GMean` bars.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod rng;
pub mod sampling;
pub mod summary;

pub use json::Json;
pub use rng::Rng;
pub use sampling::SampleSpec;
pub use summary::{geometric_mean, Summary};
