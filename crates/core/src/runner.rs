//! High-level trial runner: the one-call path used by the benchmark
//! binaries and the examples.
//!
//! A [`TrialConfig`] names the hardware (speed factors, disk, network), the
//! *declared* performance vector (the paper deliberately mismatches the two
//! in Table 3's first row), the workload and the algorithm. [`run_trial`]
//! provisions the simulated cluster, generates each node's block on its own
//! disk, resets the clocks (the paper excludes the initial distribution
//! from its timings), runs the sort, verifies the result, and returns the
//! paper-style row: execution time, partition sizes, sublist expansion,
//! traffic and I/O totals, and the per-phase breakdown.

use cluster::{run_cluster, ClusterSpec, NetworkModel, PhaseBreakdown, RuntimeKind, StorageKind};
use extsort::{fingerprint_file, is_sorted_file, Fingerprint, PipelineConfig, SortKernel};
use obs::ClusterObs;
use pdm::PdmResult;
use workloads::{generate_to_disk, Benchmark, Layout};

use crate::external::{psrs_external, ExternalPsrsConfig};
use crate::metrics::LoadBalance;
use crate::multilevel::SplitterStrategy;
use crate::overpartition::{overpartition_external, OverpartitionConfig};
use crate::perf::PerfVector;

/// Which sorting algorithm a trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortAlgo {
    /// The paper's Algorithm 1 (external heterogeneous PSRS).
    ExternalPsrs,
    /// Li & Sevcik overpartitioning, external variant (baseline).
    OverpartitionExternal,
}

/// Full description of one experiment trial.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Hardware speed factors (drive the cost model): the paper's loaded
    /// cluster is `{1,1,4,4}` regardless of what the algorithm assumes.
    pub hardware: Vec<u64>,
    /// The perf vector the *algorithm* uses for data shares and pivots.
    pub declared: PerfVector,
    /// Input distribution.
    pub bench: Benchmark,
    /// Requested input size (padded up to Equation 2 validity).
    pub n: u64,
    /// Per-node memory budget in records.
    pub mem_records: usize,
    /// Polyphase tape files.
    pub tapes: usize,
    /// Redistribution message size in records. Must be positive:
    /// [`run_trial`] returns [`pdm::PdmError::InvalidConfig`] for 0.
    pub msg_records: usize,
    /// Network fabric.
    pub net: NetworkModel,
    /// Disk backend.
    pub storage: StorageKind,
    /// Disk cost model every node is charged with (the paper's year-2000
    /// SCSI by default). The device changes the bill, never the plan.
    pub disk_model: pdm::DiskModel,
    /// PDM block size in bytes.
    pub block_bytes: usize,
    /// Trial seed (vary per repetition).
    pub seed: u64,
    /// Timing jitter shape (0 = deterministic).
    pub jitter: f64,
    /// Algorithm under test.
    pub algo: SortAlgo,
    /// Overpartitioning factor (only for [`SortAlgo::OverpartitionExternal`]).
    pub oversampling: u64,
    /// Check output order and input/output permutation equality.
    pub verify: bool,
    /// Use the fused partition+redistribution path (extension; `false`
    /// reproduces the paper's Algorithm 1 literally).
    pub fused: bool,
    /// Pipelined-execution knobs for the per-node sort and merge phases
    /// (off = the paper's sequential execution).
    pub pipeline: PipelineConfig,
    /// In-core sort kernel: radix fast path (default) or the
    /// comparison-based reference (the paper's calibrated sorter).
    pub kernel: SortKernel,
    /// Splitter selection: flat root-gather (the paper's step 2) or the
    /// two-level √p-grouped scheme that caps any node's sample sort at
    /// O(√p) candidates per peer.
    pub splitter: SplitterStrategy,
    /// Record phase spans and metrics during the trial (the `obs` crate).
    /// Off by default; a traced trial is observationally identical to an
    /// untraced one (same output, same I/O counters, same virtual times).
    pub trace: bool,
    /// Which cluster scheduler runs the trial: thread-per-node (default)
    /// or the single-threaded event runtime. Every exchange produces
    /// bit-identical virtual clocks either way.
    pub runtime: RuntimeKind,
}

impl TrialConfig {
    /// Paper-defaults trial: Algorithm 1, uniform input, Fast-Ethernet,
    /// SCSI disks, 32 Kb messages, 16 tapes, memory for ~1 Mi records.
    pub fn new(hardware: Vec<u64>, declared: PerfVector, n: u64) -> Self {
        TrialConfig {
            hardware,
            declared,
            bench: Benchmark::Uniform,
            n,
            mem_records: 1 << 20,
            tapes: 16,
            msg_records: 8 * 1024,
            net: NetworkModel::fast_ethernet(),
            storage: StorageKind::Memory,
            disk_model: pdm::DiskModel::scsi_2000(),
            block_bytes: 32 * 1024,
            seed: 1,
            jitter: 0.03,
            algo: SortAlgo::ExternalPsrs,
            oversampling: 4,
            verify: true,
            fused: false,
            pipeline: PipelineConfig::off(),
            kernel: SortKernel::default(),
            splitter: SplitterStrategy::Flat,
            trace: false,
            runtime: RuntimeKind::default(),
        }
    }
}

/// What one trial produced (one row of a paper table).
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The padded input size actually sorted.
    pub n: u64,
    /// Virtual execution time of the sort (generation excluded), seconds.
    pub time_secs: f64,
    /// Final partition sizes vs. proportional targets.
    pub balance: LoadBalance,
    /// Per-phase makespan contributions: for each phase name, the maximum
    /// across nodes of that node's time spent up to the end of the phase.
    pub phase_ends: Vec<(String, f64)>,
    /// Per-phase, per-node durations derived from the phase marks (always
    /// populated — no tracing needed). Phase `k`'s duration on a node is
    /// the delta between its stamps, so examples and bench bins no longer
    /// recompute it by hand.
    pub phase_breakdown: Vec<PhaseBreakdown>,
    /// Full span/metric data, `Some` only when [`TrialConfig::trace`] was
    /// set. Includes the PSRS skew check as recorded cluster gauges
    /// (`skew.expansion`, `skew.bound`, `skew.within_bound`).
    pub obs: Option<ClusterObs>,
    /// Total block I/Os across all nodes.
    pub total_io_blocks: u64,
    /// Total bytes pushed into the network.
    pub sent_bytes: u64,
    /// Whether verification ran and passed (always true when `verify` was
    /// set — failures panic with diagnostics).
    pub verified: bool,
}

struct NodeReturn {
    received: u64,
    fp_in: Fingerprint,
    fp_out: Fingerprint,
    first: Option<u32>,
    last: Option<u32>,
}

/// Runs one trial end to end. Panics on any correctness violation when
/// `cfg.verify` is set; returns the first failed node's error.
pub fn run_trial(cfg: &TrialConfig) -> PdmResult<TrialResult> {
    let p = cfg.hardware.len();
    assert_eq!(
        cfg.declared.p(),
        p,
        "declared perf and hardware must have the same width"
    );
    let n = cfg.declared.padded_size(cfg.n);
    let shares = cfg.declared.shares(n);
    let layouts = Layout::cluster(&shares);

    let spec = ClusterSpec::new(cfg.hardware.clone())
        .with_net(cfg.net.clone())
        .with_block_bytes(cfg.block_bytes)
        .with_storage(cfg.storage)
        .with_disk_model(cfg.disk_model.clone())
        .with_seed(cfg.seed)
        .with_jitter(cfg.jitter)
        .with_tracing(cfg.trace)
        .with_runtime(cfg.runtime);

    let xcfg = ExternalPsrsConfig::new(cfg.declared.clone(), cfg.mem_records)
        .with_tapes(cfg.tapes)
        .with_msg_records(cfg.msg_records)
        .with_fused_redistribution(cfg.fused)
        .with_pipeline(cfg.pipeline)
        .with_kernel(cfg.kernel)
        .with_splitter(cfg.splitter);
    // Both algorithms ship `msg_records`-record messages; refuse a bad
    // config before any node generates its input.
    xcfg.validate()?;
    let ocfg = OverpartitionConfig::new(cfg.declared.clone()).with_oversampling(cfg.oversampling);
    let trial = cfg.clone();

    let mut report = run_cluster(&spec, async move |ctx| -> PdmResult<NodeReturn> {
        generate_to_disk(
            &ctx.disk,
            "input",
            trial.bench,
            trial.seed,
            layouts[ctx.rank],
        )?;
        let fp_in = if trial.verify {
            fingerprint_file::<u32>(&ctx.disk, "input")?
        } else {
            Fingerprint::default()
        };
        // The paper's timings exclude the initial distribution of data.
        ctx.reset_timing().await;

        let received = match trial.algo {
            SortAlgo::ExternalPsrs => psrs_external::<u32>(ctx, &xcfg).await?.received_records,
            SortAlgo::OverpartitionExternal => {
                overpartition_external::<u32>(
                    ctx,
                    &ocfg,
                    trial.mem_records,
                    trial.tapes,
                    trial.msg_records,
                    "input",
                    "output",
                )
                .await?
                .received
            }
        };

        let (fp_out, first, last) = if trial.verify {
            assert!(
                is_sorted_file::<u32>(&ctx.disk, "output")?,
                "node {} produced an unsorted output",
                ctx.rank
            );
            let fp = fingerprint_file::<u32>(&ctx.disk, "output")?;
            let mut rd = ctx.disk.open_reader::<u32>("output")?;
            let first = if rd.is_empty() {
                None
            } else {
                Some(rd.read_at(0)?)
            };
            let last = if rd.is_empty() {
                None
            } else {
                Some(rd.read_at(rd.len() - 1)?)
            };
            (fp, first, last)
        } else {
            (Fingerprint::default(), None, None)
        };
        Ok(NodeReturn {
            received,
            fp_in,
            fp_out,
            first,
            last,
        })
    });

    // A node's error (a refused configuration, a failed read) is the
    // trial's error.
    if let Some(rank) = report.nodes.iter().position(|nd| nd.value.is_err()) {
        report.nodes.swap_remove(rank).value?;
    }
    let returns: Vec<&NodeReturn> = report
        .nodes
        .iter()
        .filter_map(|nd| nd.value.as_ref().ok())
        .collect();

    if cfg.verify {
        // Permutation: combined output fingerprint equals combined input.
        let fin = returns
            .iter()
            .fold(Fingerprint::default(), |acc, r| acc.combine(&r.fp_in));
        let fout = returns
            .iter()
            .fold(Fingerprint::default(), |acc, r| acc.combine(&r.fp_out));
        assert_eq!(fin, fout, "output is not a permutation of the input");
        // Global order across node boundaries.
        let mut prev_last: Option<u32> = None;
        for (rank, r) in returns.iter().enumerate() {
            if let (Some(pl), Some(f)) = (prev_last, r.first) {
                assert!(
                    pl <= f,
                    "boundary violation between node {} and {rank}: {pl} > {f}",
                    rank - 1
                );
            }
            if r.last.is_some() {
                prev_last = r.last;
            }
        }
        let total: u64 = returns.iter().map(|r| r.received).sum();
        assert_eq!(total, n, "records lost or duplicated");
    }

    let sizes: Vec<u64> = returns.iter().map(|r| r.received).collect();
    let balance = LoadBalance::new(sizes, &cfg.declared);

    // Per-phase maxima across nodes (phases are identical in order).
    let mut phase_ends: Vec<(String, f64)> = Vec::new();
    if let Some(first) = report.nodes.first() {
        for (idx, mark) in first.phases.iter().enumerate() {
            let end = report
                .nodes
                .iter()
                .map(|nd| nd.phases.get(idx).map(|m| m.at.as_secs()).unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            phase_ends.push((mark.name.to_string(), end));
        }
    }

    let obs = cfg.trace.then(|| {
        let mut cluster_obs = report.cluster_obs();
        // The PSRS skew check becomes recorded metrics. Regular sampling
        // takes `p·perf_i` samples per node, so consecutive samples are
        // `n / (p·Σperf)` records apart; each of the `p−1` pivots can
        // misplace at most `p` sample gaps relative to the proportional
        // target, giving the (loose) per-node expansion bound
        // `1 + p·(p−1)·spacing / min_share` — the external analogue of the
        // paper's `(1 + p·(p−1)/l)` factor.
        let p_f = p as f64;
        let spacing = n as f64 / (p_f * cfg.declared.total() as f64);
        let min_share = shares.iter().copied().min().unwrap_or(1).max(1) as f64;
        let bound = 1.0 + p_f * (p_f - 1.0) * spacing / min_share;
        let expansion = balance.expansion();
        cluster_obs.cluster.gauge_set("skew.expansion", expansion);
        cluster_obs.cluster.gauge_set("skew.bound", bound);
        cluster_obs.cluster.gauge_set(
            "skew.within_bound",
            if expansion <= bound { 1.0 } else { 0.0 },
        );
        cluster_obs
            .cluster
            .gauge_set("skew.spacing_records", spacing);
        for (rank, node) in cluster_obs.nodes.iter_mut().enumerate() {
            node.metrics
                .gauge_set("psrs.received_records", balance.sizes[rank] as f64);
            node.metrics
                .gauge_set("psrs.expected_records", shares[rank] as f64);
        }
        cluster_obs
    });

    Ok(TrialResult {
        n,
        time_secs: report.makespan.as_secs(),
        balance,
        phase_ends,
        phase_breakdown: report.phase_breakdown(),
        total_io_blocks: report.total_io().total_blocks(),
        sent_bytes: report.nodes.iter().map(|nd| nd.sent_bytes).sum(),
        verified: cfg.verify,
        obs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TrialConfig {
        let mut cfg = TrialConfig::new(vec![1, 1, 4, 4], PerfVector::paper_1144(), 8_000);
        cfg.mem_records = 512;
        cfg.tapes = 4;
        cfg.msg_records = 256;
        cfg.block_bytes = 256;
        cfg
    }

    #[test]
    fn a_refused_worker_count_is_the_trial_error() {
        // Every node's step-1 sort refuses the count before it forms runs,
        // so no sort thread starts.
        let mut cfg = small_cfg();
        cfg.pipeline = PipelineConfig::with_workers(extsort::MAX_WORKERS + 1);
        let err = run_trial(&cfg).unwrap_err();
        assert!(matches!(err, pdm::PdmError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn a_zero_message_size_is_the_trial_error() {
        for algo in [SortAlgo::ExternalPsrs, SortAlgo::OverpartitionExternal] {
            let mut cfg = small_cfg();
            cfg.algo = algo;
            cfg.msg_records = 0;
            let err = run_trial(&cfg).unwrap_err();
            assert!(
                matches!(&err, pdm::PdmError::InvalidConfig(m) if m.contains("message size")),
                "{err}"
            );
        }
    }

    #[test]
    fn trial_runs_and_verifies() {
        let result = run_trial(&small_cfg()).unwrap();
        assert!(result.verified);
        assert!(result.time_secs > 0.0);
        assert!(result.balance.expansion() < 2.0);
        assert_eq!(result.balance.total(), result.n);
        assert_eq!(result.phase_ends.len(), 5);
        assert!(result.total_io_blocks > 0);
        assert!(result.sent_bytes > 0);
        // The breakdown mirrors the cumulative ends: deltas sum back up.
        assert_eq!(result.phase_breakdown.len(), 5);
        assert!(result.obs.is_none(), "tracing is off by default");
        for (idx, phase) in result.phase_breakdown.iter().enumerate() {
            assert_eq!(phase.name, result.phase_ends[idx].0);
            assert_eq!(phase.per_node.len(), 4);
        }
    }

    #[test]
    fn traced_trial_records_phases_and_skew() {
        let mut cfg = small_cfg();
        cfg.trace = true;
        let result = run_trial(&cfg).unwrap();
        let obs_data = result.obs.as_ref().expect("tracing was requested");
        assert_eq!(obs_data.nodes.len(), 4);
        for node in &obs_data.nodes {
            let names: Vec<&str> = node.phases().map(|s| s.name).collect();
            assert_eq!(
                names,
                vec!["local-sort", "pivots", "partition", "redistribute", "merge"]
            );
            assert!(node.metrics.counters.contains_key("sort.records"));
            assert!(node.metrics.counters.contains_key("io.blocks_read"));
            assert!(node
                .metrics
                .histograms
                .contains_key("psrs.partition_records"));
            assert!(node.metrics.gauges.contains_key("psrs.received_records"));
        }
        // The skew check is a recorded metric now, and this trial obeys it.
        let g = &obs_data.cluster.gauges;
        assert!(g.get("skew.expansion").copied().unwrap() >= 1.0);
        assert_eq!(g.get("skew.within_bound").copied(), Some(1.0));
        // Both exporters emit valid JSON for a real trial.
        obs::json::validate(&obs::chrome_trace(obs_data)).unwrap();
        obs::json::validate(&obs::metrics_json(obs_data)).unwrap();
    }

    #[test]
    fn declared_vector_matters_on_heterogeneous_hardware() {
        // Table 3's experiment: same loaded hardware, homogeneous vs
        // correct declared vector. The correct vector must win clearly.
        let mut wrong = small_cfg();
        wrong.declared = PerfVector::homogeneous(4);
        let mut right = small_cfg();
        right.n = wrong.declared.padded_size(8_000); // same workload size
        let t_wrong = run_trial(&wrong).unwrap().time_secs;
        let t_right = run_trial(&right).unwrap().time_secs;
        assert!(
            t_right < t_wrong,
            "declared {{1,1,4,4}} ({t_right:.2}s) must beat {{1,1,1,1}} ({t_wrong:.2}s)"
        );
    }

    #[test]
    fn overpartitioning_trial_runs() {
        let mut cfg = small_cfg();
        cfg.algo = SortAlgo::OverpartitionExternal;
        let result = run_trial(&cfg).unwrap();
        assert!(result.verified);
        assert!(result.balance.expansion() < 3.0);
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let a = run_trial(&small_cfg()).unwrap();
        let b = run_trial(&small_cfg()).unwrap();
        assert_eq!(a.time_secs, b.time_secs);
        assert_eq!(a.balance.sizes, b.balance.sizes);
        let mut c_cfg = small_cfg();
        c_cfg.seed = 999;
        let c = run_trial(&c_cfg).unwrap();
        assert_ne!(a.time_secs, c.time_secs);
    }

    #[test]
    fn pipelined_trial_matches_sequential_observables() {
        // Same seed, same data: pipelining must not change what is sorted,
        // where it lands, or how many blocks move — only the virtual time.
        // Jitter off: with the radix kernel the phases are I/O-bound and
        // the overlap saving is smaller than the jitter noise, so the
        // max(cpu,io) <= cpu+io property only holds deterministically.
        let mut scfg = small_cfg();
        scfg.jitter = 0.0;
        let seq = run_trial(&scfg).unwrap();
        let mut pcfg = small_cfg();
        pcfg.jitter = 0.0;
        pcfg.pipeline = PipelineConfig::with_workers(4);
        let pipe = run_trial(&pcfg).unwrap();
        assert!(pipe.verified);
        assert_eq!(pipe.balance.sizes, seq.balance.sizes);
        assert_eq!(pipe.total_io_blocks, seq.total_io_blocks);
        assert_eq!(pipe.sent_bytes, seq.sent_bytes);
        // max(cpu, io) can only shrink the charged phase times.
        assert!(
            pipe.time_secs <= seq.time_secs + 1e-9,
            "pipelined {} vs sequential {}",
            pipe.time_secs,
            seq.time_secs
        );
    }

    #[test]
    fn fused_trial_verifies_and_saves_io() {
        // The fused exchange sorts the same data with strictly fewer block
        // transfers (no partition files) and four phases instead of five.
        let staged = run_trial(&small_cfg()).unwrap();
        let mut fcfg = small_cfg();
        fcfg.fused = true;
        let fused = run_trial(&fcfg).unwrap();
        assert!(fused.verified);
        assert_eq!(fused.balance.sizes, staged.balance.sizes);
        assert_eq!(fused.phase_ends.len(), 4);
        assert_eq!(fused.phase_ends[2].0, "partition+redistribute");
        assert!(
            fused.total_io_blocks < staged.total_io_blocks,
            "fused {} vs staged {}",
            fused.total_io_blocks,
            staged.total_io_blocks
        );
    }

    #[test]
    fn myrinet_does_not_help_much() {
        // The paper's observation: the algorithm moves each record once, so
        // a faster fabric barely changes the total time.
        let fe = run_trial(&small_cfg()).unwrap();
        let mut cfg = small_cfg();
        cfg.net = NetworkModel::myrinet();
        let my = run_trial(&cfg).unwrap();
        let ratio = fe.time_secs / my.time_secs;
        assert!(
            (0.9..1.6).contains(&ratio),
            "Myrinet changed time by {ratio:.2}× — network should not dominate"
        );
    }
}
