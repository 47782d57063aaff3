//! Heterogeneity-aware Parallel Sorting by Regular Sampling (PSRS),
//! in-core and out-of-core — a reproduction of C. Cérin, *"An Out-of-Core
//! Sorting Algorithm for Clusters with Processors at Different Speed"*
//! (IPPS/IPDPS workshops 2002).
//!
//! The library sorts data spread across a cluster whose node speeds differ
//! by multiplicative factors encoded in a performance vector `perf`
//! ([`perf::PerfVector`]): node `i` initially holds — and finally owns —
//! a share of `perf[i] / Σ perf` of the records. The paper's **Algorithm 1**
//! ([`external::psrs_external`]) runs five phases per node:
//!
//! 1. local **polyphase merge sort** of the node's block (out-of-core);
//! 2. **regular sampling** proportional to `perf` + pivot selection at
//!    cumulative-performance ranks ([`sampling`], [`pivots`]);
//! 3. **partitioning** of the sorted block at the pivots ([`partition`]);
//! 4. **redistribution** — partition `j` goes to node `j`, in block-sized
//!    messages;
//! 5. **final k-way merge** of the received sorted partitions.
//!
//! The PSRS guarantee carries over: no node receives more than 2× its
//! proportional share, measured by [`metrics::LoadBalance`] just as the
//! paper's *sublist expansion* column. Records equal to a pivot are cut by
//! position ([`pivots::equal_limits`]), so duplicate keys do not add the
//! paper's `+ d` to that bound.
//!
//! Also provided, as the paper's comparison points:
//!
//! * [`incore::psrs_incore`] — the in-core heterogeneous PSRS the paper
//!   builds on (HiPC 2000);
//! * [`overpartition`] — Li & Sevcik's *sorting by overpartitioning*,
//!   adapted to `perf`-weighted assignment, in-core and out-of-core;
//! * [`runner`] — a one-call harness that provisions a simulated cluster,
//!   generates a workload, runs a sort and returns the paper-style row
//!   (time, deviation source, partition sizes, sublist expansion).

pub mod external;
pub mod incore;
pub mod metrics;
pub mod multilevel;
pub mod overpartition;
pub mod partition;
pub mod perf;
pub mod pivots;
pub mod runner;
pub mod sampling;

pub use external::{psrs_external, ExternalPsrsConfig, ExternalPsrsOutcome};
pub use incore::{
    psrs_incore, psrs_incore_kernel, psrs_incore_split, psrs_incore_with, InCoreOutcome,
    PivotStrategy,
};
pub use metrics::LoadBalance;
pub use multilevel::{
    grouped_select_pivots, two_level_exchange, GroupLayout, SplitTiming, SplitterStrategy,
};
pub use overpartition::{overpartition_external, overpartition_incore, OverpartitionConfig};
pub use perf::PerfVector;
pub use runner::{run_trial, SortAlgo, TrialConfig, TrialResult};
