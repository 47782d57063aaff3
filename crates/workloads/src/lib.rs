//! Benchmark input distributions.
//!
//! The paper evaluates "eight different benchmarks corresponding to eight
//! different inputs" without defining them; its citations (refs. 17, 18, 30)
//! use the canonical sorting-benchmark suites of Helman–JáJá–Bader and the
//! CM-2 study, so we implement that suite: benchmarks 0–7 below, plus two
//! duplicate-heavy extras, Zipf ranks and one hot key. Benchmark 0
//! (uniform) is the one whose absolute numbers the paper prints.
//!
//! Inputs are generated **per node block**: several distributions are
//! defined relative to which processor initially holds a record (bucket
//! sorted, staggered, g-group), and heterogeneous clusters hold *unequal*
//! block sizes, so generators take the node rank and the global layout.
//! Everything is deterministic from `(seed, benchmark, node)`.

pub mod dist;
pub mod gen;

pub use dist::{max_duplicate_count, Benchmark};
pub use gen::{generate_block, generate_to_disk, generate_whole, Layout};
