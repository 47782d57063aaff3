//! The cluster workloads: the paper's Algorithm 1 (`psrs_external`, staged
//! exchange) on a simulated heterogeneous cluster run by `run_cluster`,
//! with the events runtime, in-memory disks, the SCSI disk model and the
//! Fast-Ethernet network model. Each sort generates its own input on the
//! node disks inside `run_cluster`; that time is subtracted from the sort's
//! wall time, and `setup_s` times the same generation on its own.

use std::future::{poll_fn, Future};
use std::time::Instant;

use cluster::{run_cluster, ClusterReport, ClusterSpec, NetworkModel, RuntimeKind, StorageKind};
use extsort::{fingerprint_file, Fingerprint, PipelineConfig, SortKernel};
use hetsort::{
    psrs_external, ExternalPsrsConfig, ExternalPsrsOutcome, LoadBalance, PerfVector,
    SplitterStrategy,
};
use pdm::{Disk, IoSnapshot, PdmResult};
use workloads::{generate_block, generate_to_disk, Benchmark, Layout};

use crate::check::{check_cluster, inspect};
use crate::{err, ladder, Metrics, Rep, Workload};

/// Jitter shape of the cost model (a trial's default).
const JITTER_SIGMA: f64 = 0.03;

/// The Algorithm-1 phases and the metrics that report them: each phase's
/// share of the model makespan and of the sort's wall time. Shares, not
/// seconds, so that a phase a workload does not run reads 0 without being
/// a constant time; multiply by `model_makespan_s` or `wall_s` for seconds.
pub const PHASES: [(&str, &str, &str); 5] = [
    (
        "local-sort",
        "core.local_sort_model_share",
        "core.local_sort_wall_share",
    ),
    (
        "pivots",
        "core.pivots_model_share",
        "core.pivots_wall_share",
    ),
    (
        "partition",
        "core.partition_model_share",
        "core.partition_wall_share",
    ),
    (
        "redistribute",
        "core.redistribute_model_share",
        "core.redistribute_wall_share",
    ),
    ("merge", "core.merge_model_share", "core.merge_wall_share"),
];

/// Blame categories of the critical path and the metrics that report them.
const BLAME: [(&str, &str); 7] = [
    ("cpu", "obs.blame.cpu_share"),
    ("io-read", "obs.blame.io_read_share"),
    ("io-write", "obs.blame.io_write_share"),
    ("queue-wait", "obs.blame.queue_wait_share"),
    ("net-transfer", "obs.blame.net_transfer_share"),
    ("credit-stall", "obs.blame.credit_stall_share"),
    ("idle-straggler", "obs.blame.idle_straggler_share"),
];

/// Records each blame category as its share of `makespan`.
pub fn insert_blame(blame: &obs::Blame, makespan: f64, out: &mut Metrics) {
    for ((category, secs), (name, key)) in blame.parts().into_iter().zip(BLAME) {
        debug_assert_eq!(category, name);
        out.insert(key, secs / makespan);
    }
}

pub struct ClusterSort {
    perf: PerfVector,
    bench: Benchmark,
    /// Input records, padded to a size the perf vector divides.
    n: u64,
    mem_records: usize,
    tapes: usize,
    msg_records: usize,
    block_bytes: usize,
    splitter: SplitterStrategy,
    seed: u64,
}

/// What one node hands back: its disk (checked after the run, outside
/// virtual time) and what it measured.
struct NodeOut {
    disk: Disk,
    gen_s: f64,
    fp_s: f64,
    input: Fingerprint,
    /// The node's polls of its sort, on its tracer's clock (traced runs).
    slices: Vec<(f64, f64)>,
    outcome: ExternalPsrsOutcome,
    io: IoSnapshot,
    sent_bytes: u64,
    messages: u64,
}

impl ClusterSort {
    /// The paper's loaded cluster (perf 1,1,4,4) on 2²⁴ zipf duplicates
    /// with M = 2²⁰ and the flat splitter.
    pub fn p4_zipf(seed: u64) -> Self {
        let perf = PerfVector::new(vec![1, 1, 4, 4]);
        ClusterSort {
            n: perf.padded_size(1 << 24),
            perf,
            bench: Benchmark::ZipfDuplicates,
            mem_records: 1 << 20,
            tapes: 16,
            msg_records: 8 * 1024,
            block_bytes: 32 * 1024,
            splitter: SplitterStrategy::Flat,
            seed,
        }
    }

    /// p = 64 with perf 1,2,4 repeating on 2²⁴ uniform records with
    /// M = 2¹⁶ and the grouped splitter.
    pub fn p64_grouped(seed: u64) -> Self {
        let perf = PerfVector::new([1, 2, 4].into_iter().cycle().take(64).collect());
        ClusterSort {
            n: perf.padded_size(1 << 24),
            perf,
            bench: Benchmark::Uniform,
            mem_records: 1 << 16,
            tapes: 4,
            msg_records: 1024,
            block_bytes: 4 * 1024,
            splitter: SplitterStrategy::grouped(),
            seed,
        }
    }

    /// Runs one sort.
    fn sort_once(&self, traced: bool) -> ClusterReport<PdmResult<NodeOut>> {
        let spec = ClusterSpec::new(self.perf.as_slice().to_vec())
            .with_net(NetworkModel::fast_ethernet())
            .with_block_bytes(self.block_bytes)
            .with_storage(StorageKind::Memory)
            .with_disk_model(pdm::DiskModel::scsi_2000())
            .with_seed(self.seed)
            .with_jitter(JITTER_SIGMA)
            .with_tracing(traced)
            .with_runtime(RuntimeKind::Events);
        let xcfg = ExternalPsrsConfig {
            perf: self.perf.clone(),
            mem_records: self.mem_records,
            tapes: self.tapes,
            msg_records: self.msg_records,
            input: "input".into(),
            output: "output".into(),
            fused_redistribution: false,
            streaming_merge: false,
            pipeline: PipelineConfig::off(),
            kernel: SortKernel::default(),
            splitter: self.splitter,
        };
        let layouts = Layout::cluster(&self.perf.shares(self.n));
        let (bench, seed) = (self.bench, self.seed);
        run_cluster(&spec, async move |ctx| -> PdmResult<NodeOut> {
            let t = Instant::now();
            generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank])?;
            let gen_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let input = fingerprint_file::<u32>(&ctx.disk, "input")?;
            let fp_s = t.elapsed().as_secs_f64();
            // Generation is excluded from virtual time, as in the paper.
            ctx.reset_timing().await;
            let tracer = ctx.obs.clone();
            let before = ctx.disk.stats().snapshot();
            let (sent_before, messages_before) = (ctx.sent_bytes(), ctx.sent_messages());
            let (outcome, slices) = polled(&tracer, psrs_external::<u32>(ctx, &xcfg)).await;
            let outcome = outcome?;
            Ok(NodeOut {
                disk: ctx.disk.clone(),
                gen_s,
                fp_s,
                input,
                slices,
                outcome,
                io: ctx.disk.stats().snapshot().delta(&before),
                sent_bytes: ctx.sent_bytes() - sent_before,
                messages: ctx.sent_messages() - messages_before,
            })
        })
    }

    /// Checks the node outputs left on the returned disks.
    fn check(&self, nodes: &[&NodeOut]) -> Result<(), String> {
        let outputs = nodes
            .iter()
            .map(|nd| inspect(&nd.disk, "output"))
            .collect::<PdmResult<Vec<_>>>()
            .map_err(err)?;
        let input = nodes
            .iter()
            .fold(Fingerprint::default(), |acc, nd| acc.combine(&nd.input));
        if input.count != self.n {
            return Err(format!(
                "generated {} records, expected {}",
                input.count, self.n
            ));
        }
        check_cluster(&outputs, &input, self.n)
    }
}

/// Unwraps every node's value, naming the first node that failed.
fn node_values(report: &ClusterReport<PdmResult<NodeOut>>) -> Result<Vec<&NodeOut>, String> {
    report
        .nodes
        .iter()
        .enumerate()
        .map(|(rank, nd)| {
            nd.value
                .as_ref()
                .map_err(|e| format!("node {rank} failed: {e}"))
        })
        .collect()
}

/// Runs `fut`, recording on `tracer`'s clock when each of its polls began
/// and ended (nothing when `tracer` is disabled). The events runtime runs
/// one node at a time, so these are the node's slices of the executor
/// thread.
async fn polled<F: Future>(tracer: &obs::Obs, fut: F) -> (F::Output, Vec<(f64, f64)>) {
    let mut fut = std::pin::pin!(fut);
    let mut slices = Vec::new();
    let out = poll_fn(|cx| {
        let start = tracer.elapsed();
        let poll = fut.as_mut().poll(cx);
        if tracer.is_enabled() {
            slices.push((start, tracer.elapsed()));
        }
        poll
    })
    .await;
    (out, slices)
}

/// Wall seconds each phase kept the executor busy: every node's poll
/// slices, cut at that node's own phase boundaries. Slices of different
/// nodes never overlap, so the phases add up to the sort's wall time less
/// the scheduler's own work.
fn phase_busy(cluster_obs: &obs::ClusterObs, nodes: &[&NodeOut]) -> [f64; PHASES.len()] {
    let mut busy = [0.0; PHASES.len()];
    for (node_obs, nd) in cluster_obs.nodes.iter().zip(nodes) {
        for span in node_obs.phases() {
            if let Some(k) = PHASES.iter().position(|(name, ..)| *name == span.name) {
                busy[k] += nd
                    .slices
                    .iter()
                    .map(|&(a, b)| (b.min(span.wall_end) - a.max(span.wall_start)).max(0.0))
                    .sum::<f64>();
            }
        }
    }
    busy
}

impl Workload for ClusterSort {
    fn setup(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        for layout in Layout::cluster(&self.perf.shares(self.n)) {
            let disk = Disk::in_memory(self.block_bytes);
            generate_to_disk(&disk, "input", self.bench, self.seed, layout).map_err(err)?;
        }
        Ok(t.elapsed().as_secs_f64())
    }

    fn run(&mut self, traced: bool) -> Result<Rep, String> {
        let start = Instant::now();
        let report = self.sort_once(traced);
        let total_s = start.elapsed().as_secs_f64();
        let nodes = node_values(&report)?;
        let wall_s = total_s - nodes.iter().map(|nd| nd.gen_s + nd.fp_s).sum::<f64>();
        let check = self.check(&nodes);

        let input_bytes = self.input_bytes() as f64;
        let sum = |f: &dyn Fn(&NodeOut) -> u64| nodes.iter().map(|nd| f(nd)).sum::<u64>() as f64;
        let makespan = report.makespan.as_secs();
        let sizes: Vec<u64> = nodes.iter().map(|nd| nd.outcome.received_records).collect();
        let exact = Metrics::from([
            (
                "io_bytes_per_byte",
                sum(&|nd| nd.io.blocks_read + nd.io.blocks_written) * self.block_bytes as f64
                    / input_bytes,
            ),
            ("model_makespan_s", makespan),
            (
                "sublist_expansion",
                LoadBalance::new(sizes, &self.perf).expansion(),
            ),
            ("pdm.blocks_read", sum(&|nd| nd.io.blocks_read)),
            ("pdm.blocks_written", sum(&|nd| nd.io.blocks_written)),
            ("pdm.random_reads", sum(&|nd| nd.io.random_reads)),
            (
                "extsort.initial_runs",
                sum(&|nd| nd.outcome.local_sort.initial_runs),
            ),
            (
                "extsort.merge_phases",
                nodes
                    .iter()
                    .map(|nd| nd.outcome.local_sort.merge_phases)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            (
                "extsort.key_ops",
                sum(&|nd| nd.outcome.local_sort.key_ops + nd.outcome.final_merge.key_ops),
            ),
            (
                "cluster.sent_bytes_per_byte",
                sum(&|nd| nd.sent_bytes) / input_bytes,
            ),
            ("cluster.messages", sum(&|nd| nd.messages)),
        ]);

        let mut layers = Metrics::new();
        // Model phases: the slowest node per phase, and a check that the
        // phases of the node that finished its work last add up to the
        // makespan (which adds only the closing barrier).
        let breakdown = report.phase_breakdown();
        for phase in &breakdown {
            if let Some((_, key, _)) = PHASES.iter().find(|(name, ..)| *name == phase.name) {
                layers.insert(key, phase.max().as_secs() / makespan);
            }
        }
        let last_sum = (0..nodes.len())
            .map(|rank| {
                breakdown
                    .iter()
                    .map(|ph| ph.per_node[rank].as_secs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        layers.insert(
            "core.phase_sum_rel_err",
            (last_sum - makespan).abs() / makespan,
        );
        if traced {
            let cluster_obs = report.cluster_obs();
            if let Some(path) = obs::critical_path(&cluster_obs) {
                insert_blame(&path.blame, path.makespan, &mut layers);
            }
            let span_secs = |name: &str| -> f64 {
                cluster_obs
                    .nodes
                    .iter()
                    .flat_map(|nd| nd.spans.iter())
                    .filter(|s| s.name == name)
                    .map(|s| s.wall_secs())
                    .sum()
            };
            let merge_s = span_secs("extsort.merge-pass");
            let merge_bytes = sum(&|nd| {
                let ls = &nd.outcome.local_sort;
                // Run formation writes every record once; the rest is merging.
                ls.io.bytes_written.saturating_sub(ls.records * 4)
            });
            layers.insert(
                "extsort.run_formation_s",
                span_secs("extsort.run-formation"),
            );
            layers.insert("extsort.merge_s", merge_s);
            layers.insert("extsort.merge_mb_s", merge_bytes / 1e6 / merge_s);
            let busy = phase_busy(&cluster_obs, &nodes);
            for ((_, _, key), secs) in PHASES.iter().zip(busy) {
                layers.insert(key, secs / wall_s);
            }
        }
        Ok(Rep {
            wall_s,
            check,
            exact,
            layers,
        })
    }

    fn input_bytes(&self) -> u64 {
        self.n * 4
    }

    fn threads(&self) -> usize {
        // The events runtime runs every node on the calling thread.
        1
    }

    fn ladder(&mut self, out: &mut Metrics) -> Result<(), String> {
        let data = generate_block(self.bench, self.seed, Layout::single(self.n));
        ladder::pdm_stream(&Disk::in_memory(self.block_bytes), &data, out)?;
        ladder::kernel_rates(&data[..self.mem_records], out);
        drop(data);
        ladder::kway_rate(
            &Disk::in_memory(self.block_bytes),
            self.bench,
            self.seed,
            self.mem_records as u64 / 2,
            &PipelineConfig::off(),
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Tally;

    /// `cluster_p4_zipf` scaled down to 20 000 records.
    fn tiny(splitter: SplitterStrategy) -> ClusterSort {
        let perf = PerfVector::new(vec![1, 1, 4, 4]);
        ClusterSort {
            n: perf.padded_size(20_000),
            perf,
            bench: Benchmark::ZipfDuplicates,
            mem_records: 4096,
            tapes: 4,
            msg_records: 512,
            block_bytes: 1024,
            splitter,
            seed: 3,
        }
    }

    #[test]
    fn repetitions_check_and_repeat_exactly() {
        for splitter in [SplitterStrategy::Flat, SplitterStrategy::grouped()] {
            let mut wl = tiny(splitter);
            let plain = wl.run(false).unwrap();
            let traced = wl.run(true).unwrap();
            assert!(plain.check.is_ok() && traced.check.is_ok());
            assert_eq!(plain.exact, traced.exact, "tracing changed a count");
            let err = traced.layers["core.phase_sum_rel_err"];
            assert!(err < 0.01, "phases miss the makespan by {err}");
            let blame: f64 = BLAME.iter().map(|(_, k)| traced.layers[k]).sum();
            assert!((blame - 1.0).abs() < 1e-6, "blame shares sum to {blame}");
            // The nodes' poll slices fill most of the sort's wall time and
            // never more than all of it.
            let walls: Vec<f64> = PHASES.iter().map(|(_, _, k)| traced.layers[k]).collect();
            let busy: f64 = walls.iter().sum();
            assert!(walls.iter().all(|&w| w > 0.0), "{walls:?}");
            assert!(
                busy > 0.5 && busy <= 1.0,
                "phases fill {busy} of the wall time"
            );
        }
    }

    /// A node output corrupted after the sort is caught by the workload's
    /// own check and counted as a failed repetition.
    #[test]
    fn corrupted_cluster_outputs_count_as_failed() {
        let wl = tiny(SplitterStrategy::Flat);
        let report = wl.sort_once(false);
        let nodes = node_values(&report).unwrap();
        let mut tally = Tally::default();
        tally.record(&wl.check(&nodes));

        // Swap two nodes' outputs: each stays sorted, the union is intact,
        // only the order across the boundary breaks.
        let outputs: Vec<Vec<u32>> = nodes
            .iter()
            .map(|nd| nd.disk.read_file::<u32>("output").unwrap())
            .collect();
        let rewrite = |rank: usize, data: &[u32]| {
            nodes[rank].disk.remove("output").unwrap();
            nodes[rank].disk.write_file::<u32>("output", data).unwrap();
        };
        rewrite(1, &outputs[2]);
        rewrite(2, &outputs[1]);
        let swapped = wl.check(&nodes);
        assert!(
            swapped.as_ref().unwrap_err().contains("boundary"),
            "{swapped:?}"
        );
        tally.record(&swapped);

        // Drop one record from a node.
        rewrite(1, &outputs[1][1..]);
        rewrite(2, &outputs[2]);
        tally.record(&wl.check(&nodes));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }
}
