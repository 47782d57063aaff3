//! Simulation primitives shared by every crate in the workspace.
//!
//! This crate is the bottom of the dependency stack. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual-time axis measured in seconds.
//!   All "execution times" reported by the benchmark harness are virtual: node
//!   clocks are *charged* by cost models instead of being read from the wall.
//! * [`rng`] — small, fast, fully deterministic PRNGs ([`rng::SplitMix64`],
//!   [`rng::Pcg64`]) plus distribution helpers (uniform, Gaussian, Zipf,
//!   log-normal). The workloads and jitter models build on these so that every
//!   experiment is reproducible from a single `u64` seed.
//! * [`jitter`] — multiplicative log-normal noise used to give virtual timings
//!   realistic run-to-run deviations (the paper reports standard deviations
//!   over 30 runs; we reproduce the *existence* and rough magnitude of that
//!   spread deterministically).
//! * [`stats`] — streaming summary statistics (Welford) used by the harness to
//!   print `mean ± deviation` columns.

pub mod jitter;
pub mod rng;
pub mod stats;
pub mod time;

pub use jitter::Jitter;
pub use rng::{Pcg64, SplitMix64};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
