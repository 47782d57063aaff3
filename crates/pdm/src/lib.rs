//! Parallel Disk Model (PDM) substrate.
//!
//! The paper analyses its algorithm in Vitter & Shriver's PDM, where the cost
//! of an algorithm is the number of *block* I/O operations: in one I/O each of
//! `D` disks transfers a block of `B` contiguous records. This crate
//! implements that storage model as a real, testable substrate:
//!
//! * [`record::Record`] — fixed-size binary encoding for sortable records
//!   (the paper sorts 4-byte MPI integers; we also support 64-bit keys and
//!   key+payload records).
//! * [`disk::Disk`] — a simulated disk drive: a namespace of block files with
//!   shared [`stats::IoStats`] counters and a [`model::DiskModel`] service
//!   time. Two backends: real files in a scratch directory (the default for
//!   experiments — real I/O happens) and in-memory buffers (for fast unit and
//!   property tests).
//! * [`file::BlockWriter`] / [`file::BlockReader`] — typed, block-buffered
//!   sequential access plus random `read_at`, all metered in block units.
//! * [`stripe::DiskArray`] — `D > 1` disks with striped writes and
//!   independent reads, matching the PDM's access discipline.
//! * [`params::PdmParams`] — the N/M/B/D/P parameter set and the
//!   `Sort(N) = Θ((n/D) log_m n)` bound the harness checks measured I/O
//!   counts against.

pub mod disk;
pub mod error;
pub mod file;
pub mod model;
pub mod params;
pub mod pool;
pub mod record;
pub mod stats;
pub mod stripe;
pub mod tempdir;

pub use disk::{Backend, Disk};
pub use error::{PdmError, PdmResult};
pub use file::{BlockReader, BlockWriter};
pub use model::DiskModel;
pub use params::PdmParams;
pub use pool::BufferPool;
pub use record::Record;
pub use stats::{IoSnapshot, IoStats};
pub use stripe::DiskArray;
pub use tempdir::ScratchDir;
