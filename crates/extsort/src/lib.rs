//! Sequential external sorting.
//!
//! The paper's Algorithm 1 uses a **polyphase merge sort** (Knuth Vol. 3,
//! §5.4.2) as its per-node sequential sorter — both for the initial local
//! sort (step 1) and, conceptually, for the final merge (step 5). This crate
//! implements that sorter from scratch over the [`pdm`] block-file substrate,
//! plus the pieces it decomposes into, each independently reusable:
//!
//! * [`stream::RecordStream`] — a fallible record source (block files,
//!   in-memory vectors, bounded run views).
//! * [`kernel`] — pluggable in-core sort kernels: the radix fast path on
//!   order-preserving `sort_key()`s (the default) and the comparison-based
//!   reference path, byte-identical by construction.
//! * [`loser_tree::LoserTree`] — tournament-tree k-way merge with keys in
//!   the nodes, a per-source look-ahead, batch output, branch-free replay
//!   and exact select counting.
//! * [`run_formation`] — initial sorted-run creation, by memory-load chunk
//!   sorting or by replacement selection (runs of expected length `2M`).
//! * [`polyphase`] — polyphase merge sort with ideal (generalized-Fibonacci)
//!   run distribution and dummy runs.
//! * [`kway`] — a balanced k-way merge sort baseline (textbook external
//!   sort) and a single-pass multiway merge of pre-sorted files (used by
//!   PSRS step 5), sharing one merge body.
//! * `sink` — the output-name checks every sorter shares: the output
//!   must be free before the sort starts, and the final tape is published
//!   under it.
//! * `window` — the one merge call of the polyphase, balanced and step-5
//!   merges. It cuts the merge into in-memory windows of the inputs: at a
//!   fan-in of 8 or more, with the pipeline on or off, each window is
//!   sorted by the radix kernel (streaky windows are merged by a loser
//!   tree); with the pipeline on and two or more workers each window is
//!   also split at exact ranks and its slices finished on that many
//!   threads. A merge of fewer than 8 inputs on one thread, and every
//!   merge of records whose key is not a total order, drains one loser
//!   tree.
//! * [`distribution`] — the PDM *distribution sort* of the paper's §2
//!   (randomized splitters, S buckets, recursion), the other I/O-optimal
//!   paradigm, used as a comparison point in the ablations.
//! * [`striped`] — a two-phase sort over a `D`-disk [`pdm::DiskArray`],
//!   demonstrating the PDM's `1/D` parallel-I/O factor.
//! * [`verify`] — sortedness checks and an order-independent multiset
//!   fingerprint, used by every test and by the harness's self-checks.
//!
//! Every sorter returns a [`report::SortReport`] with record counts, run
//! counts, pass counts, comparison counts and the block-I/O delta, so the
//! layers above (the cluster cost model, the PDM-bound harness) can convert
//! work into virtual time without this crate knowing about clocks.

pub mod config;
pub mod distribution;
pub mod kernel;
pub mod kway;
pub mod loser_tree;
pub mod planner;
pub mod polyphase;
pub mod report;
pub mod run_formation;
mod sink;
pub mod stream;
pub mod striped;
pub mod verify;
mod window;

pub use config::{ExtSortConfig, PipelineConfig, RunFormation, MAX_WORKERS};
pub use distribution::distribution_sort;
pub use kernel::{sort_chunk, KernelWork, SortKernel};
pub use kway::{balanced_kway_sort, merge_sorted_files_kernel};
pub use loser_tree::LoserTree;
pub use planner::{predict_merge_time, CpuCost, MergeShape};
pub use polyphase::polyphase_sort;
pub use report::{MergeReport, SortReport};
pub use stream::{RecordStream, SliceStream};
pub use striped::striped_two_phase_sort;
pub use verify::{fingerprint_file, fingerprint_slice, is_sorted_file, Fingerprint};
