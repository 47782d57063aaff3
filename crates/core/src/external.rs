//! Algorithm 1: external PSRS for heterogeneous clusters.
//!
//! Each node holds an on-disk block of `l_i = n · perf[i] / Σ perf` records
//! and runs five phases (all I/O metered in PDM blocks, all work charged to
//! the node's virtual clock):
//!
//! 1. **local external sort** — polyphase merge sort,
//!    `2·l_i(1 + ⌈log_m l_i⌉)` I/Os;
//! 2. **pivot selection** — `p·perf[i]` regular samples read with seeks
//!    (the paper's "L I/Os, very inferior to step 1"), gathered on node 0,
//!    pivots at cumulative-performance ranks, broadcast;
//! 3. **partitioning** — one streaming pass splits the sorted block into
//!    `p` files (`2·Q/B` I/Os);
//! 4. **redistribution** — partition `j` travels to node `j` in messages of
//!    `msg_records` records (the message-size knob the paper tunes to 8 Ki
//!    integers / 32 Kb);
//! 5. **final merge** — one k-way merge pass over the `p` received sorted
//!    files.
//!
//! With [`ExternalPsrsConfig::fused_redistribution`] steps 3 and 4 fuse
//! into one pass that sends partition chunks straight from the sorted file
//! (the paper's disk-to-disk remark). Every receive is a blocking
//! `recv_any`, so the virtual clocks do not depend on the scheduler.

use std::time::Instant;

use cluster::charge::Work;
use cluster::{NodeCtx, Tag};
use extsort::{
    merge_sorted_files_kernel, ExtSortConfig, MergeReport, PipelineConfig, SortKernel, SortReport,
};
use pdm::{record, PdmError, PdmResult, Record};

use crate::incore::PivotStrategy;
use crate::multilevel::SplitterStrategy;
use crate::partition::{partition_file_streaming_tiebreak, scan_cuts};
use crate::perf::PerfVector;
use crate::pivots::equal_limits;
use crate::sampling::{regular_positions, regular_sample_count};

/// Tag for redistribution data chunks.
const TAG_PART_DATA: Tag = Tag(0x0100);

/// Configuration of one external-PSRS run (identical on every node).
#[derive(Debug, Clone)]
pub struct ExternalPsrsConfig {
    /// The *declared* performance vector: data shares, sample counts and
    /// pivot ranks all follow it. Independent of the hardware speeds.
    pub perf: PerfVector,
    /// Per-node in-core memory budget `M`, in records.
    pub mem_records: usize,
    /// Tape files for the local polyphase sort (paper: 16 = 15
    /// intermediate + output).
    pub tapes: usize,
    /// Records per redistribution message (paper's tuned value: 8 Ki
    /// integers = 32 Kb). Must be positive: [`psrs_external`] returns
    /// [`PdmError::InvalidConfig`] for 0.
    pub msg_records: usize,
    /// Name of each node's unsorted input file on its own disk.
    pub input: String,
    /// Name for each node's sorted output file.
    pub output: String,
    /// Fuse steps 3 and 4: stream the sorted file once, sending each
    /// partition chunk straight into the network instead of materializing
    /// `p` partition files first. Saves `2·Q/B` block I/Os per node — the
    /// paper's remark that "hardware able to transfer data from disk to
    /// disk … will be more efficient". `false` reproduces the paper's
    /// algorithm literally.
    pub fused_redistribution: bool,
    /// Must be `false`: the streamed exchange-merge it selected was
    /// removed. The field stays only so struct literals that set it keep
    /// compiling; [`psrs_external`] returns [`PdmError::InvalidConfig`]
    /// when it is `true`. Build configs with [`ExternalPsrsConfig::new`].
    pub streaming_merge: bool,
    /// Pipelined-execution knobs for the I/O-heavy phases (step 1's local
    /// sort and step 5's final merge): parallel run formation and split
    /// merge windows. Off by default (the sequential reference). When on,
    /// those phases are charged `max(cpu, io)` instead of `cpu + io` — the
    /// model lets the transfers hide behind the computation; the transfers
    /// themselves run on the node's own thread.
    pub pipeline: PipelineConfig,
    /// In-core sort kernel for step 1's run formation, step 5's merge and
    /// the root's pivot sort: the radix fast path (default) or the
    /// comparison-based reference. Both produce byte-identical output; they
    /// differ only in speed and in which counter ([`Work::key_ops`] vs
    /// [`Work::comparisons`]) the CPU work is billed to.
    pub kernel: SortKernel,
    /// How step 2 selects the splitters: the paper's centralized gather
    /// at node 0 ([`SplitterStrategy::Flat`]) or the two-level √p-group
    /// selection of [`crate::multilevel`]. Either way duplicate keys at
    /// the pivots split by position.
    pub splitter: SplitterStrategy,
}

impl ExternalPsrsConfig {
    /// A config with the paper's defaults (16 tapes, 8 Ki-record messages).
    pub fn new(perf: PerfVector, mem_records: usize) -> Self {
        ExternalPsrsConfig {
            perf,
            mem_records,
            tapes: 16,
            msg_records: 8 * 1024,
            input: "input".to_string(),
            output: "output".to_string(),
            fused_redistribution: false,
            streaming_merge: false,
            pipeline: PipelineConfig::off(),
            kernel: SortKernel::default(),
            splitter: SplitterStrategy::Flat,
        }
    }

    /// Sets the splitter-selection strategy (builder style).
    #[must_use]
    pub fn with_splitter(mut self, splitter: SplitterStrategy) -> Self {
        self.splitter = splitter;
        self
    }

    /// Sets the in-core sort kernel (builder style).
    #[must_use]
    pub fn with_kernel(mut self, kernel: SortKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the pipeline knobs (builder style).
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Enables the fused partition+redistribution path (builder style).
    #[must_use]
    pub fn with_fused_redistribution(mut self, fused: bool) -> Self {
        self.fused_redistribution = fused;
        self
    }

    /// Sets the message size in records (builder style).
    #[must_use]
    pub fn with_msg_records(mut self, m: usize) -> Self {
        self.msg_records = m;
        self
    }

    /// Sets the tape count (builder style).
    #[must_use]
    pub fn with_tapes(mut self, t: usize) -> Self {
        self.tapes = t;
        self
    }

    /// Rejects settings no run can use: a zero message size, and the
    /// removed streamed exchange-merge.
    pub fn validate(&self) -> PdmResult<()> {
        if self.msg_records == 0 {
            return Err(PdmError::InvalidConfig(
                "message size must be at least one record".to_string(),
            ));
        }
        if self.streaming_merge {
            return Err(PdmError::InvalidConfig(
                "streaming_merge is no longer supported; use the staged or fused exchange"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

/// Per-node outcome of Algorithm 1.
#[derive(Debug)]
pub struct ExternalPsrsOutcome {
    /// Records this node finally owns (its `output` file length).
    pub received_records: u64,
    /// Step-1 local sort report.
    pub local_sort: SortReport,
    /// Step-5 merge report.
    pub final_merge: MergeReport,
    /// Sizes of the partitions this node cut (by destination).
    pub sent_partition_sizes: Vec<u64>,
    /// Samples this node contributed in step 2.
    pub samples_contributed: u64,
    /// The pivots used (identical on every node).
    pub pivot_count: usize,
}

/// Runs Algorithm 1 on this node. Call from inside a
/// [`cluster::run_cluster`] node function on **every** node (the phases
/// contain collectives). `cfg.input` must already exist on the node's disk;
/// `cfg.output` is created. A config that fails
/// [`ExternalPsrsConfig::validate`] is refused on every node before any
/// I/O or message, so no node is left waiting in a collective.
pub async fn psrs_external<R: Record>(
    ctx: &mut NodeCtx,
    cfg: &ExternalPsrsConfig,
) -> PdmResult<ExternalPsrsOutcome> {
    assert_eq!(cfg.perf.p(), ctx.p, "perf vector must cover every node");
    cfg.validate()?;
    let p = ctx.p;
    let rank = ctx.rank;
    let perf = &cfg.perf;
    let sorted_name = "xpsrs.sorted";
    let part_prefix = "xpsrs.part";
    let recv_prefix = "xpsrs.recv";

    // ---- Step 1: local external sort (polyphase merge sort). ----
    let sort_cfg = ExtSortConfig::new(cfg.mem_records)
        .with_tapes(cfg.tapes)
        .with_pipeline(cfg.pipeline)
        .with_kernel(cfg.kernel);
    let t0 = Instant::now();
    let local_sort =
        extsort::polyphase_sort::<R>(&ctx.disk, &cfg.input, sorted_name, "xpsrs", &sort_cfg)?;
    let sort_work = Work {
        comparisons: local_sort.comparisons,
        key_ops: local_sort.key_ops,
        moves: local_sort.records * (local_sort.merge_phases as u64 + 1),
    };
    if cfg.pipeline.enabled {
        ctx.charger
            .charge_overlapped_section(sort_work, t0.elapsed());
    } else {
        ctx.charger.charge_section(sort_work, t0.elapsed());
    }
    ctx.obs.counter_add("sort.records", local_sort.records);
    ctx.obs
        .counter_add("sort.initial_runs", local_sort.initial_runs);
    ctx.obs
        .counter_add("sort.merge_passes", local_sort.merge_phases as u64);
    ctx.obs
        .counter_add("sort.comparisons", local_sort.comparisons);
    ctx.obs.counter_add("sort.key_ops", local_sort.key_ops);
    ctx.mark_phase("local-sort");

    // ---- Step 2: regular sampling and pivot selection. ----
    let count = regular_sample_count(perf, rank);
    let positions = regular_positions(local_sort.records, count);
    let mut reader = ctx.disk.open_reader::<R>(sorted_name)?;
    let mut sample = Vec::with_capacity(positions.len());
    for &q in &positions {
        sample.push(reader.read_at(q)?); // metered as random reads: L I/Os
    }
    drop(reader);
    let samples_contributed = sample.len() as u64;
    let (pivots, _timing) = cfg
        .splitter
        .select(
            ctx,
            perf,
            &sample,
            PivotStrategy::RegularSampling,
            cfg.kernel,
        )
        .await;
    // Records equal to a pivot split by position in every partition pass
    // below (see `equal_limits`).
    let equal_limit = equal_limits(rank, &pivots, &positions);
    let pivots: Vec<R> = pivots.iter().map(|pv| pv.key).collect();
    ctx.obs.counter_add("psrs.samples", samples_contributed);
    ctx.obs.gauge_set("psrs.pivots", pivots.len() as f64);
    ctx.mark_phase("pivots");

    let sent_sizes = if cfg.fused_redistribution {
        // ---- Steps 3+4 fused: one streaming pass sends partitions
        // straight to their owners (no intermediate partition files),
        // saving 2·Q/B block I/Os — the paper's disk-to-disk remark.
        fused_partition_redistribute::<R>(ctx, cfg, &pivots, &equal_limit, sorted_name, recv_prefix)
            .await?
    } else {
        // ---- Step 3: partition the sorted file at the pivots. ----
        let t0 = Instant::now();
        let sent_sizes = partition_file_streaming_tiebreak::<R>(
            &ctx.disk,
            sorted_name,
            part_prefix,
            &pivots,
            &equal_limit,
        )?;
        ctx.charger.charge_section(
            Work {
                comparisons: local_sort.records + p as u64,
                key_ops: 0,
                moves: local_sort.records,
            },
            t0.elapsed(),
        );
        ctx.disk.remove(sorted_name)?;
        ctx.mark_phase("partition");

        // ---- Step 4: redistribution in block-multiple messages. ----
        // 4a: everyone learns how much to expect from everyone.
        let size_payloads: Vec<Vec<u8>> = sent_sizes
            .iter()
            .map(|&s| s.to_le_bytes().to_vec())
            .collect();
        let incoming_sizes: Vec<u64> = ctx
            .all_to_all(size_payloads)
            .await
            .iter()
            .map(|b| u64::from_le_bytes(b.as_slice().try_into().expect("8-byte size")))
            .collect();

        // 4b: my own partition stays local (a rename, no I/O).
        ctx.disk.rename(
            &format!("{part_prefix}{rank}"),
            &format!("{recv_prefix}{rank}"),
        )?;

        // 4c: stream every foreign partition out in msg_records chunks.
        for j in (0..p).filter(|&j| j != rank) {
            let name = format!("{part_prefix}{j}");
            let mut rd = ctx.disk.open_reader::<R>(&name)?;
            let mut chunk: Vec<R> = Vec::with_capacity(cfg.msg_records);
            loop {
                chunk.clear();
                if rd.read_into(&mut chunk, cfg.msg_records)? == 0 {
                    break;
                }
                ctx.charger.charge_work(Work::moves(chunk.len() as u64));
                ctx.send_records(j, TAG_PART_DATA, &chunk);
            }
            drop(rd);
            ctx.disk.remove(&name)?;
        }

        // 4d: receive every foreign partition into a local sorted file,
        // draining chunks in arrival order (any-source receive) so one
        // slow sender no longer blocks the chunks already queued from
        // everyone else. Receive overhead and record moves are charged in
        // one aggregate shot to keep the clock order-independent.
        let mut writers: Vec<Option<pdm::BlockWriter<R>>> = Vec::with_capacity(p);
        for i in 0..p {
            writers.push(if i == rank {
                None
            } else {
                Some(ctx.disk.create_writer::<R>(&format!("{recv_prefix}{i}"))?)
            });
        }
        let total_msgs: u64 = (0..p)
            .filter(|&i| i != rank)
            .map(|i| incoming_sizes[i].div_ceil(cfg.msg_records as u64))
            .sum();
        let mut scratch: Vec<R> = Vec::with_capacity(cfg.msg_records);
        let mut moved = 0u64;
        for _ in 0..total_msgs {
            let msg = ctx.recv_any(TAG_PART_DATA).await;
            record::decode_all_into(&msg.bytes, &mut scratch);
            moved += scratch.len() as u64;
            writers[msg.from]
                .as_mut()
                .expect("no self-sends in redistribution")
                .push_all(&scratch)?;
        }
        ctx.charge_recv_overheads(total_msgs);
        ctx.charger.charge_work(Work::moves(moved));
        for (i, wr) in writers.into_iter().enumerate() {
            let Some(wr) = wr else { continue };
            let got = wr.finish()?;
            let expect = incoming_sizes[i];
            if got != expect {
                return Err(PdmError::SizeMismatch {
                    what: format!("partition from node {i}"),
                    expect,
                    got,
                });
            }
        }
        ctx.mark_phase("redistribute");
        sent_sizes
    };
    for &s in &sent_sizes {
        ctx.obs.hist_record("psrs.partition_records", s);
    }

    // ---- Step 5: final k-way merge of the received partitions. ----
    let inputs: Vec<String> = (0..p).map(|i| format!("{recv_prefix}{i}")).collect();
    let t0 = Instant::now();
    let final_merge =
        merge_sorted_files_kernel::<R>(&ctx.disk, &inputs, &cfg.output, &cfg.pipeline, cfg.kernel)?;
    let merge_work = Work {
        comparisons: final_merge.comparisons,
        key_ops: final_merge.key_ops,
        moves: final_merge.records,
    };
    if cfg.pipeline.enabled {
        ctx.charger
            .charge_overlapped_section(merge_work, t0.elapsed());
    } else {
        ctx.charger.charge_section(merge_work, t0.elapsed());
    }
    for name in &inputs {
        ctx.disk.remove(name)?;
    }
    ctx.obs.counter_add("merge.records", final_merge.records);
    ctx.obs
        .counter_add("merge.comparisons", final_merge.comparisons);
    ctx.obs.counter_add("merge.key_ops", final_merge.key_ops);
    ctx.obs.gauge_set("merge.fan_in", final_merge.fan_in as f64);
    ctx.mark_phase("merge");

    Ok(ExternalPsrsOutcome {
        received_records: final_merge.records,
        local_sort,
        final_merge,
        sent_partition_sizes: sent_sizes,
        samples_contributed,
        pivot_count: pivots.len(),
    })
}

/// Fused steps 3+4: streams the sorted file once; records bound for node
/// `j ≠ rank` leave in `msg_records` chunks terminated by an empty
/// message, records owned locally go straight into the local receive
/// file. Returns the partition sizes this node cut.
async fn fused_partition_redistribute<R: Record>(
    ctx: &mut NodeCtx,
    cfg: &ExternalPsrsConfig,
    pivots: &[R],
    equal_limit: &[u64],
    sorted_name: &str,
    recv_prefix: &str,
) -> PdmResult<Vec<u64>> {
    let p = ctx.p;
    let rank = ctx.rank;
    let t0 = Instant::now();
    let mut sizes = vec![0u64; p];
    let mut buffers: Vec<Vec<R>> = (0..p)
        .map(|_| Vec::with_capacity(cfg.msg_records))
        .collect();
    let mut own_writer = ctx
        .disk
        .create_writer::<R>(&format!("{recv_prefix}{rank}"))?;
    let mut rd = ctx.disk.open_reader::<R>(sorted_name)?;
    let n_local = rd.len();
    scan_cuts(&mut rd, pivots, equal_limit, |dest, mut slice| {
        sizes[dest] += slice.len() as u64;
        if dest == rank {
            return own_writer.push_all(slice);
        }
        // Fill the send buffer; ship every time it holds a full chunk.
        let buf = &mut buffers[dest];
        while !slice.is_empty() {
            let take = slice.len().min(cfg.msg_records - buf.len());
            buf.extend_from_slice(&slice[..take]);
            slice = &slice[take..];
            if buf.len() == cfg.msg_records {
                ctx.charger.charge_work(Work::moves(cfg.msg_records as u64));
                ctx.send_records(dest, TAG_PART_DATA, buf);
                buf.clear();
            }
        }
        Ok(())
    })?;
    drop(rd);
    ctx.disk.remove(sorted_name)?;
    // Flush tails and terminate every stream with an empty message.
    for j in (0..p).filter(|&j| j != rank) {
        if !buffers[j].is_empty() {
            ctx.charger
                .charge_work(Work::moves(buffers[j].len() as u64));
            let chunk = std::mem::take(&mut buffers[j]);
            ctx.send_records(j, TAG_PART_DATA, &chunk);
        }
        ctx.send_records::<R>(j, TAG_PART_DATA, &[]);
    }
    ctx.charger.charge_section(
        Work {
            comparisons: n_local + p as u64,
            key_ops: 0,
            moves: n_local,
        },
        t0.elapsed(),
    );
    own_writer.finish()?;
    // Receive every foreign partition into its own sorted receive file,
    // draining chunks in arrival order until all p−1 streams have sent
    // their empty terminator. Receive overhead and moves are charged in
    // aggregate so the clock is independent of the arrival interleaving.
    let mut writers: Vec<Option<pdm::BlockWriter<R>>> = Vec::with_capacity(p);
    for i in 0..p {
        writers.push(if i == rank {
            None
        } else {
            Some(ctx.disk.create_writer::<R>(&format!("{recv_prefix}{i}"))?)
        });
    }
    let mut open = p - 1;
    let mut msgs = 0u64;
    let mut moved = 0u64;
    let mut scratch: Vec<R> = Vec::with_capacity(cfg.msg_records);
    while open > 0 {
        let msg = ctx.recv_any(TAG_PART_DATA).await;
        msgs += 1;
        record::decode_all_into(&msg.bytes, &mut scratch);
        if scratch.is_empty() {
            open -= 1;
            continue;
        }
        moved += scratch.len() as u64;
        writers[msg.from]
            .as_mut()
            .expect("no self-sends in redistribution")
            .push_all(&scratch)?;
    }
    ctx.charge_recv_overheads(msgs);
    ctx.charger.charge_work(Work::moves(moved));
    for wr in writers.into_iter().flatten() {
        wr.finish()?;
    }
    ctx.mark_phase("partition+redistribute");
    Ok(sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{run_cluster, ClusterReport, ClusterSpec, StorageKind};
    use extsort::{fingerprint_slice, is_sorted_file};
    use workloads::{generate_to_disk, Benchmark, Layout};

    struct NodeResult {
        outcome: ExternalPsrsOutcome,
        output: Vec<u32>,
    }

    fn cfg(perf: &PerfVector, mem: usize, tapes: usize, msg: usize) -> ExternalPsrsConfig {
        ExternalPsrsConfig::new(perf.clone(), mem)
            .with_tapes(tapes)
            .with_msg_records(msg)
    }

    fn run_with(
        spec: &ClusterSpec,
        cfg: &ExternalPsrsConfig,
        bench: Benchmark,
        n: u64,
        seed: u64,
    ) -> ClusterReport<NodeResult> {
        let layouts = Layout::cluster(&cfg.perf.shares(n));
        let cfg = cfg.clone();
        run_cluster(spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
            let outcome = psrs_external::<u32>(ctx, &cfg).await.unwrap();
            assert!(is_sorted_file::<u32>(&ctx.disk, "output").unwrap());
            let output = ctx.disk.read_file::<u32>("output").unwrap();
            NodeResult { outcome, output }
        })
    }

    fn run(
        spec: &ClusterSpec,
        perf: &PerfVector,
        bench: Benchmark,
        n: u64,
        mem: usize,
        tapes: usize,
        seed: u64,
    ) -> Vec<NodeResult> {
        let report = run_with(spec, &cfg(perf, mem, tapes, 64), bench, n, seed);
        report.nodes.into_iter().map(|n| n.value).collect()
    }

    fn assert_correct(
        results: &[NodeResult],
        perf: &PerfVector,
        bench: Benchmark,
        n: u64,
        seed: u64,
    ) {
        // Global order: concatenation by rank is sorted.
        let flat: Vec<u32> = results
            .iter()
            .flat_map(|r| r.output.iter().copied())
            .collect();
        assert_eq!(flat.len() as u64, n, "records lost or duplicated");
        assert!(flat.windows(2).all(|w| w[0] <= w[1]), "global order broken");
        // Permutation of the input.
        let input = workloads::generate_whole(bench, seed, &perf.shares(n));
        assert_eq!(
            fingerprint_slice(&flat),
            fingerprint_slice(&input),
            "output is not a permutation of the input"
        );
        // Outcome bookkeeping agrees with reality.
        for r in results {
            assert_eq!(r.outcome.received_records as usize, r.output.len());
        }
    }

    #[test]
    fn homogeneous_end_to_end() {
        let spec = ClusterSpec::homogeneous(4).with_block_bytes(64);
        let perf = PerfVector::homogeneous(4);
        let n = perf.padded_size(8_000);
        let results = run(&spec, &perf, Benchmark::Uniform, n, 256, 4, 1);
        assert_correct(&results, &perf, Benchmark::Uniform, n, 1);
    }

    #[test]
    fn heterogeneous_1144_end_to_end() {
        let spec = ClusterSpec::new(vec![1, 1, 4, 4]).with_block_bytes(64);
        let perf = PerfVector::paper_1144();
        let n = perf.padded_size(10_000);
        let results = run(&spec, &perf, Benchmark::Uniform, n, 256, 4, 2);
        assert_correct(&results, &perf, Benchmark::Uniform, n, 2);
        // Load balance within the heterogeneous PSRS bound.
        let sizes: Vec<u64> = results.iter().map(|r| r.output.len() as u64).collect();
        let lb = crate::metrics::LoadBalance::new(sizes, &perf);
        assert!(lb.expansion() < 2.0, "expansion {}", lb.expansion());
    }

    #[test]
    fn real_files_backend() {
        let spec = ClusterSpec::homogeneous(2)
            .with_block_bytes(64)
            .with_storage(StorageKind::Files);
        let perf = PerfVector::homogeneous(2);
        let n = perf.padded_size(3_000);
        let results = run(&spec, &perf, Benchmark::Gaussian, n, 128, 4, 3);
        assert_correct(&results, &perf, Benchmark::Gaussian, n, 3);
    }

    #[test]
    fn all_benchmarks_small() {
        let spec = ClusterSpec::homogeneous(4).with_block_bytes(64);
        let perf = PerfVector::homogeneous(4);
        let n = perf.padded_size(2_000);
        for bench in Benchmark::ALL {
            let results = run(&spec, &perf, bench, n, 128, 4, 4);
            assert_correct(&results, &perf, bench, n, 4);
        }
    }

    #[test]
    fn tiny_messages_still_correct() {
        // msg_records = 8 is the paper's pathological packet size: many
        // chunks per stream. The skewed benchmarks route everything to few
        // nodes, so the fused path's terminators arrive early. Both
        // exchanges cut at the same pivots, so every node's output must be
        // byte-identical between them.
        let spec = ClusterSpec::homogeneous(3).with_block_bytes(64);
        let perf = PerfVector::homogeneous(3);
        let n = perf.padded_size(1_000);
        for bench in Benchmark::ALL {
            let [staged, fused] = [false, true].map(|fused| {
                let cfg = cfg(&perf, 128, 4, 8).with_fused_redistribution(fused);
                let report = run_with(&spec, &cfg, bench, n, 5);
                let results: Vec<NodeResult> =
                    report.nodes.into_iter().map(|nd| nd.value).collect();
                assert_correct(&results, &perf, bench, n, 5);
                results
            });
            for (a, b) in staged.iter().zip(&fused) {
                assert_eq!(a.output, b.output, "{bench:?}: fused output differs");
            }
        }
    }

    #[test]
    fn single_node() {
        let spec = ClusterSpec::homogeneous(1).with_block_bytes(64);
        let perf = PerfVector::homogeneous(1);
        let n = perf.padded_size(1_500);
        for fused in [false, true] {
            let cfg = cfg(&perf, 128, 4, 64).with_fused_redistribution(fused);
            let report = run_with(&spec, &cfg, Benchmark::Gaussian, n, 8);
            let results: Vec<NodeResult> = report.nodes.into_iter().map(|nd| nd.value).collect();
            assert_correct(&results, &perf, Benchmark::Gaussian, n, 8);
        }
    }

    #[test]
    fn fused_redistribution_correct_and_cheaper() {
        let perf = PerfVector::paper_1144();
        let n = perf.padded_size(10_000);
        let spec = || ClusterSpec::new(vec![1, 1, 4, 4]).with_block_bytes(64);
        let staged_cfg = cfg(&perf, 256, 4, 64);
        let fused_cfg = staged_cfg.clone().with_fused_redistribution(true);
        let plain = run_with(&spec(), &staged_cfg, Benchmark::Uniform, n, 11);
        let fused = run_with(&spec(), &fused_cfg, Benchmark::Uniform, n, 11);
        // Identical results (same pivots, same data).
        for (a, b) in plain.nodes.iter().zip(&fused.nodes) {
            assert_eq!(a.value.output, b.value.output);
        }
        // The fused path skips writing + re-reading the partition files:
        // strictly fewer block transfers.
        let io_plain = plain.total_io().total_blocks();
        let io_fused = fused.total_io().total_blocks();
        let results: Vec<NodeResult> = fused.nodes.into_iter().map(|nd| nd.value).collect();
        assert_correct(&results, &perf, Benchmark::Uniform, n, 11);
        assert!(
            io_fused < io_plain,
            "fused should save I/O: {io_fused} vs {io_plain}"
        );
    }

    #[test]
    fn pipelined_matches_plain() {
        let spec = || ClusterSpec::homogeneous(4).with_block_bytes(64);
        let perf = PerfVector::homogeneous(4);
        let n = perf.padded_size(6_000);
        let plain_cfg = cfg(&perf, 256, 4, 64);
        let piped_cfg = plain_cfg
            .clone()
            .with_pipeline(PipelineConfig::with_workers(2));
        let plain = run_with(&spec(), &plain_cfg, Benchmark::Gaussian, n, 9);
        let piped = run_with(&spec(), &piped_cfg, Benchmark::Gaussian, n, 9);
        for (a, b) in plain.nodes.iter().zip(&piped.nodes) {
            assert_eq!(a.value.output, b.value.output);
        }
        // Same logical transfers either way.
        assert_eq!(
            plain.total_io().total_blocks(),
            piped.total_io().total_blocks()
        );
    }

    #[test]
    fn temp_files_cleaned_up() {
        let spec = ClusterSpec::homogeneous(2).with_block_bytes(64);
        let perf = PerfVector::homogeneous(2);
        let n = perf.padded_size(1_000);
        for fused in [false, true] {
            let layouts = Layout::cluster(&perf.shares(n));
            let cfg = cfg(&perf, 128, 4, 64).with_fused_redistribution(fused);
            let report = run_cluster(&spec, async move |ctx| {
                generate_to_disk(&ctx.disk, "input", Benchmark::Uniform, 6, layouts[ctx.rank])
                    .unwrap();
                psrs_external::<u32>(ctx, &cfg).await.unwrap();
                let p = ctx.p;
                let mut leftovers = Vec::new();
                for name in ["xpsrs.sorted".to_string()]
                    .into_iter()
                    .chain((0..p).map(|j| format!("xpsrs.part{j}")))
                    .chain((0..p).map(|j| format!("xpsrs.recv{j}")))
                    .chain((0..8).map(|t| format!("xpsrs.tape{t}")))
                {
                    if ctx.disk.exists(&name) {
                        leftovers.push(name);
                    }
                }
                leftovers
            });
            for n in &report.nodes {
                assert!(n.value.is_empty(), "leftover temp files: {:?}", n.value);
            }
        }
    }

    #[test]
    fn phase_marks_present_and_ordered() {
        let spec = ClusterSpec::homogeneous(2).with_block_bytes(64);
        let perf = PerfVector::homogeneous(2);
        let n = perf.padded_size(2_000);
        let phases: [(bool, &[&str]); 2] = [
            (
                false,
                &["local-sort", "pivots", "partition", "redistribute", "merge"],
            ),
            (
                true,
                &["local-sort", "pivots", "partition+redistribute", "merge"],
            ),
        ];
        for (fused, expect) in phases {
            let cfg = cfg(&perf, 128, 4, 64).with_fused_redistribution(fused);
            let report = run_with(&spec, &cfg, Benchmark::Uniform, n, 7);
            for node in &report.nodes {
                let names: Vec<&str> = node.phases.iter().map(|m| m.name).collect();
                assert_eq!(names, expect);
                assert!(node.phases.windows(2).all(|w| w[0].at <= w[1].at));
            }
        }
    }

    #[test]
    fn grouped_splitter_external_matches_flat() {
        // Two-level splitter selection on a 9-node mixed-speed cluster:
        // the staged and fused paths both stay correct, and the
        // concatenated output is byte-identical to the flat baseline
        // (same sorted multiset, duplicates included).
        let hardware = vec![1u64, 2, 1, 4, 1, 2, 4, 1, 2];
        let perf = PerfVector::new(hardware.clone());
        let n = perf.padded_size(12_000);
        let spec = || ClusterSpec::new(hardware.clone()).with_block_bytes(64);
        for fused in [false, true] {
            let flat_cfg = cfg(&perf, 512, 4, 64).with_fused_redistribution(fused);
            let grouped_cfg = flat_cfg.clone().with_splitter(SplitterStrategy::grouped());
            for bench in [Benchmark::Uniform, Benchmark::ZipfDuplicates] {
                let flat = run_with(&spec(), &flat_cfg, bench, n, 7);
                let grouped = run_with(&spec(), &grouped_cfg, bench, n, 7);
                let fr: Vec<NodeResult> = flat.nodes.into_iter().map(|nd| nd.value).collect();
                let gr: Vec<NodeResult> = grouped.nodes.into_iter().map(|nd| nd.value).collect();
                assert_correct(&gr, &perf, bench, n, 7);
                let cat = |rs: &[NodeResult]| -> Vec<u32> {
                    rs.iter().flat_map(|r| r.output.iter().copied()).collect()
                };
                assert_eq!(
                    cat(&fr),
                    cat(&gr),
                    "grouped output diverged (fused={fused}, {bench:?})"
                );
            }
        }
    }

    /// Runs `cfg` on two nodes and returns each node's error.
    fn refused(cfg: ExternalPsrsConfig) -> Vec<PdmError> {
        let spec = ClusterSpec::homogeneous(2).with_block_bytes(64);
        let layouts = Layout::cluster(&cfg.perf.shares(cfg.perf.padded_size(200)));
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "input", Benchmark::Uniform, 1, layouts[ctx.rank]).unwrap();
            let err = psrs_external::<u32>(ctx, &cfg).await.unwrap_err();
            assert!(!ctx.disk.exists("output"), "a refused run wrote output");
            err
        });
        report.nodes.into_iter().map(|nd| nd.value).collect()
    }

    #[test]
    fn zero_message_size_is_a_config_error() {
        let perf = PerfVector::homogeneous(2);
        for err in refused(cfg(&perf, 128, 4, 0)) {
            assert!(
                matches!(&err, PdmError::InvalidConfig(m) if m.contains("message size")),
                "{err}"
            );
        }
    }

    #[test]
    fn streaming_merge_is_a_config_error() {
        let perf = PerfVector::homogeneous(2);
        let mut cfg = cfg(&perf, 128, 4, 64);
        cfg.streaming_merge = true;
        for err in refused(cfg) {
            assert!(
                matches!(&err, PdmError::InvalidConfig(m) if m.contains("streaming_merge")),
                "{err}"
            );
        }
    }
}
