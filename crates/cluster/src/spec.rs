//! Cluster configuration.

use pdm::{Codec, DiskModel};

use crate::cost::CpuModel;
use crate::net::NetworkModel;

/// Where node disks keep their bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// In-memory buffers (fast; unit/property tests).
    Memory,
    /// Real files in per-node scratch directories (experiments).
    Files,
}

/// Which scheduler executes the node functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// One OS thread per node; blocking receives park the thread on its
    /// mpsc channel. The original runtime — wall-clock cost grows with
    /// `p`, so it is practical up to a few dozen nodes.
    #[default]
    Threads,
    /// A single-threaded discrete-event scheduler: every node is a
    /// cooperatively-scheduled task, and blocking receives park the task
    /// until the matching message is delivered. Scales to hundreds of
    /// nodes in one process and makes scheduling fully deterministic.
    Events,
}

impl RuntimeKind {
    /// Parses a CLI spelling (`threads` | `events`).
    pub fn parse(s: &str) -> Option<RuntimeKind> {
        match s {
            "threads" => Some(RuntimeKind::Threads),
            "events" => Some(RuntimeKind::Events),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Threads => "threads",
            RuntimeKind::Events => "events",
        }
    }
}

/// How compute sections are converted to virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimePolicy {
    /// Analytic: counted work × cost model ÷ node speed. Deterministic
    /// (up to the seeded jitter); the default for every table reproduction.
    Modeled,
    /// Empirical: real elapsed wall time of the section × node slowdown.
    /// Grounded but host-dependent; offered for end-to-end demos.
    Measured,
}

/// Everything needed to spin up a simulated cluster.
///
/// `perf[i]` is node `i`'s **relative speed**: a node with `perf = 4` is 4×
/// faster than a node with `perf = 1` and, in the paper's scheme, receives
/// 4× the data. (The paper creates the slow nodes by loading identical
/// Alphas with competitor processes; we create them by scaling every CPU
/// and disk charge by `max(perf)/perf[i]`.)
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Relative node speeds (also the data-share weights).
    pub perf: Vec<u64>,
    /// Network fabric model.
    pub net: NetworkModel,
    /// Per-node disk service model.
    pub disk_model: DiskModel,
    /// Reference CPU cost model.
    pub cpu: CpuModel,
    /// Disk block size in bytes (the PDM `B`, in bytes).
    pub block_bytes: usize,
    /// Disk backend.
    pub storage: StorageKind,
    /// Master seed (node RNGs and jitter streams fork from it).
    pub seed: u64,
    /// Log-normal jitter shape applied to every charge (0 = deterministic).
    pub jitter_sigma: f64,
    /// Compute-time policy.
    pub time_policy: TimePolicy,
    /// Whether node threads record phase spans and metrics (`obs` crate).
    /// Off by default: the disabled tracer is a no-op handle, and traced
    /// runs are observationally identical to untraced ones.
    pub tracing: bool,
    /// Block codec for every node disk (zero-copy by default; both codecs
    /// are observationally identical).
    pub codec: Codec,
    /// Which scheduler runs the node functions. Thread-per-node by
    /// default; the event runtime produces bit-identical virtual clocks
    /// on every blocking exchange path and scales to hundreds of nodes.
    pub runtime: RuntimeKind,
}

impl ClusterSpec {
    /// A spec with the paper's defaults: Fast-Ethernet, SCSI-2000 disks,
    /// Alpha-533 CPUs, 32 KiB blocks, in-memory storage, no jitter.
    ///
    /// # Panics
    /// Panics if `perf` is empty or contains a zero.
    pub fn new(perf: Vec<u64>) -> Self {
        assert!(!perf.is_empty(), "cluster needs at least one node");
        assert!(
            perf.iter().all(|&x| x > 0),
            "perf entries must be positive: {perf:?}"
        );
        ClusterSpec {
            perf,
            net: NetworkModel::fast_ethernet(),
            disk_model: DiskModel::scsi_2000(),
            cpu: CpuModel::alpha_533(),
            block_bytes: 32 * 1024,
            storage: StorageKind::Memory,
            seed: 1,
            jitter_sigma: 0.0,
            time_policy: TimePolicy::Modeled,
            tracing: false,
            codec: Codec::default(),
            runtime: RuntimeKind::default(),
        }
    }

    /// A homogeneous cluster of `p` nodes.
    pub fn homogeneous(p: usize) -> Self {
        Self::new(vec![1; p])
    }

    /// Number of nodes.
    pub fn p(&self) -> usize {
        self.perf.len()
    }

    /// Node `i`'s slowdown relative to the fastest node (≥ 1).
    pub fn slowdown(&self, i: usize) -> f64 {
        let max = *self.perf.iter().max().expect("non-empty") as f64;
        max / self.perf[i] as f64
    }

    /// Sets the network model (builder style).
    #[must_use]
    pub fn with_net(mut self, net: NetworkModel) -> Self {
        self.net = net;
        self
    }

    /// Sets the disk model (builder style).
    #[must_use]
    pub fn with_disk_model(mut self, m: DiskModel) -> Self {
        self.disk_model = m;
        self
    }

    /// Sets the CPU model (builder style).
    #[must_use]
    pub fn with_cpu(mut self, m: CpuModel) -> Self {
        self.cpu = m;
        self
    }

    /// Sets the block size in bytes (builder style).
    #[must_use]
    pub fn with_block_bytes(mut self, b: usize) -> Self {
        assert!(b > 0, "block size must be positive");
        self.block_bytes = b;
        self
    }

    /// Sets the storage backend (builder style).
    #[must_use]
    pub fn with_storage(mut self, s: StorageKind) -> Self {
        self.storage = s;
        self
    }

    /// Sets the master seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the jitter shape (builder style).
    #[must_use]
    pub fn with_jitter(mut self, sigma: f64) -> Self {
        self.jitter_sigma = sigma;
        self
    }

    /// Sets the compute-time policy (builder style).
    #[must_use]
    pub fn with_time_policy(mut self, p: TimePolicy) -> Self {
        self.time_policy = p;
        self
    }

    /// Enables or disables span/metric tracing (builder style).
    #[must_use]
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Sets the node-disk block codec (builder style).
    #[must_use]
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Selects the runtime that executes the node functions (builder
    /// style).
    #[must_use]
    pub fn with_runtime(mut self, runtime: RuntimeKind) -> Self {
        self.runtime = runtime;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_heterogeneous_spec() {
        // The paper's {1,1,4,4}: two loaded nodes, two fast nodes.
        let s = ClusterSpec::new(vec![1, 1, 4, 4]);
        assert_eq!(s.p(), 4);
        assert_eq!(s.slowdown(0), 4.0);
        assert_eq!(s.slowdown(3), 1.0);
    }

    #[test]
    fn homogeneous_spec() {
        let s = ClusterSpec::homogeneous(4);
        assert_eq!(s.perf, vec![1, 1, 1, 1]);
        assert!((0..4).all(|i| s.slowdown(i) == 1.0));
    }

    #[test]
    fn builders_chain() {
        let s = ClusterSpec::homogeneous(2)
            .with_net(NetworkModel::myrinet())
            .with_block_bytes(4096)
            .with_seed(99)
            .with_jitter(0.05)
            .with_storage(StorageKind::Files)
            .with_time_policy(TimePolicy::Measured)
            .with_tracing(true)
            .with_codec(Codec::Copying)
            .with_runtime(RuntimeKind::Events);
        assert_eq!(s.net.name, NetworkModel::myrinet().name);
        assert_eq!(s.block_bytes, 4096);
        assert_eq!(s.seed, 99);
        assert_eq!(s.storage, StorageKind::Files);
        assert_eq!(s.time_policy, TimePolicy::Measured);
        assert!(s.tracing);
        assert_eq!(s.codec, Codec::Copying);
        assert_eq!(s.runtime, RuntimeKind::Events);
    }

    #[test]
    fn runtime_kind_parses_cli_spellings() {
        assert_eq!(RuntimeKind::parse("threads"), Some(RuntimeKind::Threads));
        assert_eq!(RuntimeKind::parse("events"), Some(RuntimeKind::Events));
        assert_eq!(RuntimeKind::parse("fibers"), None);
        assert_eq!(RuntimeKind::default(), RuntimeKind::Threads);
        assert_eq!(RuntimeKind::Events.name(), "events");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_perf_rejected() {
        let _ = ClusterSpec::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_perf_rejected() {
        let _ = ClusterSpec::new(vec![1, 0, 2]);
    }
}
