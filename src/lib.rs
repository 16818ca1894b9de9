//! Umbrella crate for the TEG reconfiguration suite.
//!
//! This crate exists so the repository's `examples/` and `tests/` can address
//! every workspace library through one dependency.  Downstream users should
//! depend on the individual crates (`teg-reconfig`, `teg-sim`, …) directly.

#![forbid(unsafe_code)]

pub use teg_array as array;
pub use teg_device as device;
pub use teg_power as power;
pub use teg_predict as predict;
pub use teg_reconfig as reconfig;
pub use teg_serve as serve;
pub use teg_sim as sim;
pub use teg_thermal as thermal;
pub use teg_units as units;

/// Compiles (and, unless marked `no_run`, runs) the README's Rust snippets
/// as doctests, so the front-page examples cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
