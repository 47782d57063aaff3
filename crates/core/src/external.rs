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
//! With [`ExternalPsrsConfig::streaming_merge`] steps 3–5 fuse into a
//! single **streaming exchange-merge**: incoming partition chunks feed
//! per-source bounded buffers backing an incremental loser tree whose
//! output goes straight to `cfg.output` — no receive staging files (a
//! further `2·Q/B` block I/Os saved per node), with credit-based flow
//! control bounding receiver memory.

use std::collections::VecDeque;
use std::time::Instant;

use cluster::charge::Work;
use cluster::{Message, NodeCtx, Tag};
use extsort::{
    merge_sorted_files_kernel, ExtSortConfig, MergeReport, MergeSink, MergeStep, PipelineConfig,
    SortKernel, SortReport, StreamingLoserTree,
};
use pdm::{record, BlockReader, PdmError, PdmResult, Record};

use crate::incore::PivotStrategy;
use crate::multilevel::SplitterStrategy;
use crate::partition::{partition_file_streaming_tiebreak, routes_right, scan_cuts};
use crate::perf::PerfVector;
use crate::pivots::equal_limits;
use crate::sampling::{regular_positions, regular_sample_count};

/// Tag for redistribution data chunks.
const TAG_PART_DATA: Tag = Tag(0x0100);

/// Tag for credit grants in the streamed exchange-merge: an empty message
/// from the receiver telling the sender one of its chunks has been fully
/// consumed by the merge.
const TAG_PART_CREDIT: Tag = Tag(0x0101);

/// Data chunks each sender may have outstanding toward one receiver
/// before it must wait for a credit. Two keeps the pipe full (one chunk
/// in transit while one is being merged) and bounds receiver memory at
/// `p · CHUNK_CREDITS · msg_records` records. Terminators and credit
/// grants are empty messages outside the credit budget.
const CHUNK_CREDITS: u32 = 2;

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
    /// integers = 32 Kb).
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
    /// Fuse steps 3–5 end to end: the sorted file streams out through the
    /// network and incoming chunks feed an incremental loser tree whose
    /// output goes straight to `cfg.output`. On top of
    /// `fused_redistribution`'s savings this also eliminates the `p`
    /// receive staging files (another `2·Q/B` block I/Os per node) and
    /// overlaps merge CPU + output I/O with the transfer. Backpressure
    /// comes from a per-pair credit protocol ([`CHUNK_CREDITS`]). Takes
    /// precedence over `fused_redistribution` when both are set.
    pub streaming_merge: bool,
    /// Pipelined-execution knobs for the I/O-heavy phases (step 1's local
    /// sort and step 5's final merge): prefetch readers, write-behind
    /// writers, parallel run formation. Off by default (the sequential
    /// reference). When on, those phases are charged `max(cpu, io)` instead
    /// of `cpu + io` — the transfers hide behind the computation.
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
    /// the pivots split by position. The redistribution
    /// itself stays chunk-streamed either way (its credit protocol
    /// already staggers first messages).
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

    /// Sets the parallel-merge worker count (builder style, forwarded to
    /// the pipeline knobs; clamped to ≥ 1). Applies to step 1's polyphase
    /// merge phases and step 5's final k-way merge; the streamed
    /// exchange-merge is unaffected (its inputs arrive incrementally, so
    /// ranges cannot be cut up front).
    #[must_use]
    pub fn with_merge_workers(mut self, workers: usize) -> Self {
        self.pipeline = self.pipeline.with_merge_workers(workers);
        self
    }

    /// Enables the fused partition+redistribution path (builder style).
    #[must_use]
    pub fn with_fused_redistribution(mut self, fused: bool) -> Self {
        self.fused_redistribution = fused;
        self
    }

    /// Enables the streaming exchange-merge path (builder style).
    #[must_use]
    pub fn with_streaming_merge(mut self, streaming: bool) -> Self {
        self.streaming_merge = streaming;
        self
    }

    /// Sets the message size in records (builder style).
    #[must_use]
    pub fn with_msg_records(mut self, m: usize) -> Self {
        assert!(m > 0, "message size must be positive");
        self.msg_records = m;
        self
    }

    /// Sets the tape count (builder style).
    #[must_use]
    pub fn with_tapes(mut self, t: usize) -> Self {
        self.tapes = t;
        self
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
    /// Peak records buffered in memory by the streamed exchange-merge
    /// (zero on the staged paths, which buffer on disk instead). Bounded
    /// by `p · CHUNK_CREDITS · msg_records`.
    pub peak_buffered_records: u64,
    /// Times the streamed sender stalled waiting for a chunk credit
    /// (zero on the staged paths).
    pub credit_stalls: u64,
}

/// Runs Algorithm 1 on this node. Call from inside a
/// [`cluster::run_cluster`] node function on **every** node (the phases
/// contain collectives). `cfg.input` must already exist on the node's disk;
/// `cfg.output` is created.
pub async fn psrs_external<R: Record>(
    ctx: &mut NodeCtx,
    cfg: &ExternalPsrsConfig,
) -> PdmResult<ExternalPsrsOutcome> {
    assert_eq!(cfg.perf.p(), ctx.p, "perf vector must cover every node");
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
    if cfg
        .pipeline
        .overlapped(cfg.pipeline.effective_merge_workers())
    {
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

    if cfg.streaming_merge {
        // ---- Steps 3–5 fused end to end: streaming exchange-merge. ----
        let stream =
            streaming_exchange_merge::<R>(ctx, cfg, &pivots, &equal_limit, sorted_name).await?;
        for &s in &stream.sizes {
            ctx.obs.hist_record("psrs.partition_records", s);
        }
        ctx.obs.counter_add("merge.records", stream.report.records);
        ctx.obs
            .counter_add("merge.comparisons", stream.report.comparisons);
        ctx.obs.counter_add("merge.key_ops", stream.report.key_ops);
        ctx.obs
            .gauge_set("merge.fan_in", stream.report.fan_in as f64);
        ctx.mark_phase("exchange-merge");
        return Ok(ExternalPsrsOutcome {
            received_records: stream.report.records,
            local_sort,
            final_merge: stream.report,
            sent_partition_sizes: stream.sizes,
            samples_contributed,
            pivot_count: pivots.len(),
            peak_buffered_records: stream.peak_buffered,
            credit_stalls: stream.credit_stalls,
        });
    }

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
            let msg = ctx.recv_any(&[TAG_PART_DATA]).await;
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
    // Tree selects run on the range-partitioned merge workers, so only the
    // slowest worker's share lands on the critical path; the record moves
    // (one output stream) stay serial.
    let merge_workers = extsort::planned_workers::<R>(
        &ctx.disk,
        &cfg.pipeline,
        inputs.len(),
        final_merge.records,
        cfg.kernel,
    );
    let merge_work = Work {
        comparisons: final_merge.comparisons,
        key_ops: final_merge.key_ops,
        moves: 0,
    }
    .across_workers(merge_workers)
    .plus(Work::moves(final_merge.records));
    // The merge's block transfers share the node's disk between the range
    // partition workers: declare the stream count so the contention model
    // prices their queueing, then drop back to a single stream for whatever
    // I/O follows.
    ctx.charger.set_io_streams(merge_workers);
    let overlapped = cfg.pipeline.overlapped(merge_workers);
    if overlapped {
        ctx.charger
            .charge_overlapped_section(merge_work, t0.elapsed());
    } else {
        ctx.charger.charge_section(merge_work, t0.elapsed());
    }
    ctx.charger.set_io_streams(1);
    ctx.obs.gauge_set("merge.workers", merge_workers as f64);
    if ctx.obs.is_enabled() {
        // Record the planner's own prediction for this exact merge so the
        // calibration report can join it against the measured span. The
        // planner prices on the reference CPU; this node runs `slowdown`
        // times slower, and the charger stretches *every* charge by the
        // slowdown — disk service included — so the whole prediction
        // scales into node-local seconds.
        let shape = extsort::MergeShape::of::<R>(
            inputs.len(),
            final_merge.records,
            ctx.disk.block_bytes(),
            cfg.kernel,
        );
        let predicted = extsort::predict_merge_time(
            ctx.disk.model(),
            &extsort::CpuCost::default(),
            &shape,
            merge_workers,
            overlapped,
        );
        ctx.obs.gauge_set(
            "planner.predicted_merge_secs",
            predicted.as_secs() * ctx.charger.slowdown(),
        );
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
        peak_buffered_records: 0,
        credit_stalls: 0,
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
        let msg = ctx.recv_any(&[TAG_PART_DATA]).await;
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

/// What [`streaming_exchange_merge`] hands back to [`psrs_external`].
struct StreamOutcome {
    sizes: Vec<u64>,
    report: MergeReport,
    peak_buffered: u64,
    credit_stalls: u64,
}

/// Per-node state machine of the streamed exchange-merge. One event loop
/// interleaves three pumps — drain arrivals, advance the partition scan,
/// advance the merge — blocking on the network only when none can move.
struct ExchangeMerge<R: Record> {
    rank: usize,
    p: usize,
    msg_records: usize,
    // Scan side. The sorted file crosses pivot boundaries in destination
    // order, so exactly one destination has an open send buffer at a
    // time; `lookahead` parks the record that forced a boundary crossing
    // (or hit the local cap) while the flush is credit-blocked.
    cur_dest: usize,
    send_buf: Vec<R>,
    lookahead: Option<R>,
    scan_done: bool,
    sizes: Vec<u64>,
    n_scanned: u64,
    credits: Vec<u32>,
    // Merge side: per-source FIFO buffers feed the incremental tree.
    // `chunk_lens`/`consumed` track when a whole remote chunk has been
    // merged so a credit can be granted back to its sender.
    tree: StreamingLoserTree<R>,
    bufs: Vec<VecDeque<R>>,
    chunk_lens: Vec<VecDeque<usize>>,
    consumed: Vec<usize>,
    src_done: Vec<bool>,
    merged: u64,
    done: bool,
    // Accounting for the aggregate end-of-phase charges.
    moves: u64,
    msgs_received: u64,
    buffered_now: u64,
    peak_buffered: u64,
    credit_stalls: u64,
    stalled: bool,
}

impl<R: Record> ExchangeMerge<R> {
    fn new(rank: usize, p: usize, msg_records: usize) -> Self {
        ExchangeMerge {
            rank,
            p,
            msg_records,
            cur_dest: 0,
            send_buf: Vec::with_capacity(msg_records),
            lookahead: None,
            scan_done: false,
            sizes: vec![0; p],
            n_scanned: 0,
            credits: vec![CHUNK_CREDITS; p],
            tree: StreamingLoserTree::new(p),
            bufs: (0..p).map(|_| VecDeque::new()).collect(),
            chunk_lens: (0..p).map(|_| VecDeque::new()).collect(),
            consumed: vec![0; p],
            src_done: vec![false; p],
            merged: 0,
            done: false,
            moves: 0,
            msgs_received: 0,
            buffered_now: 0,
            peak_buffered: 0,
            credit_stalls: 0,
            stalled: false,
        }
    }

    /// Cap on records parked in the local (self) buffer, mirroring the
    /// memory bound the credit protocol imposes on every remote stream.
    fn local_cap(&self) -> usize {
        CHUNK_CREDITS as usize * self.msg_records
    }

    /// Absorbs one arrival: a credit grant, a stream terminator, or a
    /// data chunk appended to its source's buffer.
    fn handle_msg(&mut self, ctx: &mut NodeCtx, msg: Message, scratch: &mut Vec<R>) {
        self.msgs_received += 1;
        if msg.tag == TAG_PART_CREDIT {
            self.credits[msg.from] += 1;
            self.stalled = false;
            return;
        }
        record::decode_all_into(&msg.bytes, scratch);
        if scratch.is_empty() {
            self.src_done[msg.from] = true;
            return;
        }
        self.moves += scratch.len() as u64;
        self.chunk_lens[msg.from].push_back(scratch.len());
        self.bufs[msg.from].extend(scratch.iter().copied());
        self.buffered_now += scratch.len() as u64;
        self.peak_buffered = self.peak_buffered.max(self.buffered_now);
        ctx.obs.hist_record("xchg.buf_occupancy", self.buffered_now);
    }

    /// Ships the open send buffer to `cur_dest` if a credit is available.
    fn try_ship(&mut self, ctx: &mut NodeCtx) -> bool {
        let d = self.cur_dest;
        if self.credits[d] == 0 {
            if !self.stalled {
                self.credit_stalls += 1;
                self.stalled = true;
            }
            return false;
        }
        self.credits[d] -= 1;
        ctx.send_records(d, TAG_PART_DATA, &self.send_buf);
        self.send_buf.clear();
        true
    }

    /// Advances `cur_dest` to `target`, flushing the open tail and
    /// terminating each stream crossed with an empty message. Streams
    /// terminate as early as the scan proves them complete — required
    /// for deadlock freedom (a receiver must never wait on a stream
    /// whose sender is itself blocked waiting for that receiver).
    /// Returns `false` if blocked on a credit.
    fn advance_dest_to(&mut self, target: usize, ctx: &mut NodeCtx) -> bool {
        while self.cur_dest < target {
            if self.cur_dest == self.rank {
                debug_assert!(self.send_buf.is_empty());
                self.src_done[self.rank] = true;
            } else {
                if !self.send_buf.is_empty() && !self.try_ship(ctx) {
                    return false;
                }
                ctx.send_records::<R>(self.cur_dest, TAG_PART_DATA, &[]);
            }
            self.cur_dest += 1;
        }
        true
    }

    /// Pumps the partition scan: reads sorted records, routes them to
    /// the single open destination buffer (or the local merge buffer),
    /// ships full chunks. Returns whether anything moved; stops on a
    /// credit stall, a full local buffer, or EOF.
    fn pump_scan(
        &mut self,
        ctx: &mut NodeCtx,
        rd: &mut BlockReader<R>,
        pivots: &[R],
        equal_limit: &[u64],
    ) -> PdmResult<bool> {
        if self.scan_done {
            return Ok(false);
        }
        let mut progress = false;
        loop {
            if self.send_buf.len() >= self.msg_records {
                if !self.try_ship(ctx) {
                    return Ok(progress);
                }
                progress = true;
            }
            let x = match self.lookahead.take() {
                Some(x) => x,
                None => match rd.next_record()? {
                    Some(x) => x,
                    None => {
                        // EOF: flush the tail and terminate every
                        // remaining stream. `next_record` at EOF stays
                        // `None`, so re-entry after a stall lands here
                        // again.
                        if !self.advance_dest_to(self.p, ctx) {
                            return Ok(progress);
                        }
                        self.scan_done = true;
                        return Ok(true);
                    }
                },
            };
            // `n_scanned` is x's index in the sorted file.
            let mut dest = self.cur_dest;
            while dest < pivots.len()
                && routes_right(&x, self.n_scanned, &pivots[dest], equal_limit[dest])
            {
                dest += 1;
            }
            if dest != self.cur_dest {
                if !self.advance_dest_to(dest, ctx) {
                    self.lookahead = Some(x);
                    return Ok(progress);
                }
                progress = true;
            }
            if dest == self.rank {
                if self.bufs[self.rank].len() >= self.local_cap() {
                    self.lookahead = Some(x);
                    return Ok(progress);
                }
                self.bufs[self.rank].push_back(x);
                self.buffered_now += 1;
                self.peak_buffered = self.peak_buffered.max(self.buffered_now);
            } else {
                self.send_buf.push(x);
            }
            self.sizes[dest] += 1;
            self.n_scanned += 1;
            self.moves += 1;
            progress = true;
        }
    }

    /// Pumps the merge: feeds the tree from the per-source buffers,
    /// closes terminated streams, writes emitted records, and grants a
    /// credit whenever a whole remote chunk has been consumed.
    fn pump_merge(&mut self, ctx: &mut NodeCtx, out: &mut MergeSink<R>) -> PdmResult<bool> {
        if self.done {
            return Ok(false);
        }
        let mut progress = false;
        loop {
            match self.tree.step() {
                MergeStep::Emit(x) => {
                    out.push(x)?;
                    self.merged += 1;
                    self.moves += 1;
                    progress = true;
                }
                MergeStep::Need(s) => {
                    if let Some(r) = self.bufs[s].pop_front() {
                        self.buffered_now -= 1;
                        if s != self.rank {
                            self.consumed[s] += 1;
                            if Some(&self.consumed[s]) == self.chunk_lens[s].front() {
                                self.chunk_lens[s].pop_front();
                                self.consumed[s] = 0;
                                ctx.send_records::<R>(s, TAG_PART_CREDIT, &[]);
                            }
                        }
                        self.tree.feed(s, r);
                        progress = true;
                    } else if self.src_done[s] {
                        self.tree.close(s);
                        progress = true;
                    } else {
                        return Ok(progress);
                    }
                }
                MergeStep::Done => {
                    self.done = true;
                    return Ok(progress);
                }
            }
        }
    }
}

/// Fused steps 3–5: one event loop streams the sorted file out in
/// credit-gated `msg_records` chunks while incoming chunks feed a
/// [`StreamingLoserTree`] writing straight into `cfg.output`. The whole
/// section is charged `max(cpu, io)` — the transfers hide behind the
/// merge — and the `xpsrs.recv*` staging files never exist, saving
/// `2·Q/B` receiver-side block I/Os on top of the fused send path.
async fn streaming_exchange_merge<R: Record>(
    ctx: &mut NodeCtx,
    cfg: &ExternalPsrsConfig,
    pivots: &[R],
    equal_limit: &[u64],
    sorted_name: &str,
) -> PdmResult<StreamOutcome> {
    let p = ctx.p;
    let rank = ctx.rank;
    let t0 = Instant::now();
    let mut rd = ctx.disk.open_reader::<R>(sorted_name)?;
    let mut out = MergeSink::<R>::create(
        &ctx.disk,
        &cfg.output,
        &cfg.pipeline,
        2,
        &pdm::BufferPool::default(),
    )?;
    let mut st = ExchangeMerge::<R>::new(rank, p, cfg.msg_records);
    let mut scratch: Vec<R> = Vec::with_capacity(cfg.msg_records);
    let tags = [TAG_PART_DATA, TAG_PART_CREDIT];
    // Run until BOTH directions finish: a node whose own merge completes
    // early must keep pumping its outgoing scan (peers still need its
    // chunks and terminators).
    while !(st.done && st.scan_done) {
        let mut progress = false;
        while let Some(msg) = ctx.try_recv_any(&tags) {
            st.handle_msg(ctx, msg, &mut scratch);
            progress = true;
        }
        progress |= st.pump_scan(ctx, &mut rd, pivots, equal_limit)?;
        progress |= st.pump_merge(ctx, &mut out)?;
        let finished = st.done && st.scan_done;
        if !finished && !progress {
            // Nothing can move: the merge is waiting on a remote chunk
            // or the scan on a credit. Both arrive as messages. When the
            // scan is the blocked side (no send credit outstanding), book
            // the blocking wait as credit time so the critical-path blame
            // can separate flow-control stalls from data starvation.
            let was_stalled = st.stalled;
            let wait0 = ctx.charger.wait_time();
            let msg = ctx.recv_any(&tags).await;
            if was_stalled {
                ctx.note_credit_wait((ctx.charger.wait_time() - wait0).as_secs());
            }
            st.handle_msg(ctx, msg, &mut scratch);
        }
    }
    drop(rd);
    ctx.disk.remove(sorted_name)?;
    let written = out.finish()?;
    debug_assert_eq!(written, st.merged);
    // Reclaim the credits still in flight (our last chunks are
    // acknowledged as their receivers' merges drain them) so the
    // channels end the phase empty.
    for d in (0..p).filter(|&d| d != rank) {
        while st.credits[d] < CHUNK_CREDITS {
            let wait0 = ctx.charger.wait_time();
            let msg = ctx.recv_any(&[TAG_PART_CREDIT]).await;
            ctx.note_credit_wait((ctx.charger.wait_time() - wait0).as_secs());
            st.handle_msg(ctx, msg, &mut scratch);
        }
    }
    debug_assert_eq!(st.buffered_now, 0);
    // Aggregate charges: per-message receive overhead plus one
    // overlapped CPU/IO section covering scan, merge and output. The
    // returned I/O delta is exactly this phase's block traffic.
    ctx.charge_recv_overheads(st.msgs_received);
    let selects = cfg.kernel.bill_selects::<R>(st.tree.comparisons());
    let work = Work {
        comparisons: st.n_scanned + p as u64 + selects.comparisons,
        key_ops: selects.key_ops,
        moves: st.moves,
    };
    let io = ctx.charger.charge_overlapped_section(work, t0.elapsed());
    ctx.obs.counter_add("xchg.msgs", st.msgs_received);
    ctx.obs.counter_add("xchg.credit_stalls", st.credit_stalls);
    ctx.obs
        .gauge_set("xchg.peak_buffered_records", st.peak_buffered as f64);
    Ok(StreamOutcome {
        sizes: st.sizes,
        report: MergeReport {
            records: st.merged,
            fan_in: p,
            comparisons: selects.comparisons,
            key_ops: selects.key_ops,
            io,
        },
        peak_buffered: st.peak_buffered,
        credit_stalls: st.credit_stalls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{run_cluster, ClusterSpec, StorageKind};
    use extsort::{fingerprint_slice, is_sorted_file};
    use workloads::{generate_to_disk, Benchmark, Layout};

    struct NodeResult {
        outcome: ExternalPsrsOutcome,
        output: Vec<u32>,
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
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = ExternalPsrsConfig {
            perf: perf.clone(),
            mem_records: mem,
            tapes,
            msg_records: 64,
            input: "input".into(),
            output: "output".into(),
            fused_redistribution: false,
            streaming_merge: false,
            pipeline: PipelineConfig::off(),
            kernel: SortKernel::default(),
            splitter: SplitterStrategy::Flat,
        };
        let report = run_cluster(spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
            let outcome = psrs_external::<u32>(ctx, &cfg).await.unwrap();
            assert!(is_sorted_file::<u32>(&ctx.disk, "output").unwrap());
            let output = ctx.disk.read_file::<u32>("output").unwrap();
            NodeResult { outcome, output }
        });
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
        let spec = ClusterSpec::homogeneous(3).with_block_bytes(64);
        let perf = PerfVector::homogeneous(3);
        let n = perf.padded_size(1_000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = ExternalPsrsConfig {
            perf: perf.clone(),
            mem_records: 128,
            tapes: 4,
            msg_records: 8, // the paper's pathological packet size
            input: "input".into(),
            output: "output".into(),
            fused_redistribution: false,
            streaming_merge: false,
            pipeline: PipelineConfig::off(),
            kernel: SortKernel::default(),
            splitter: SplitterStrategy::Flat,
        };
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "input", Benchmark::Uniform, 5, layouts[ctx.rank]).unwrap();
            psrs_external::<u32>(ctx, &cfg).await.unwrap();
            ctx.disk.read_file::<u32>("output").unwrap()
        });
        let flat: Vec<u32> = report
            .nodes
            .iter()
            .flat_map(|n| n.value.iter().copied())
            .collect();
        assert_eq!(flat.len() as u64, n);
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fused_redistribution_correct_and_cheaper() {
        let perf = PerfVector::paper_1144();
        let n = perf.padded_size(10_000);
        let shares = perf.shares(n);
        let run_mode = |fused: bool| {
            let spec = ClusterSpec::new(vec![1, 1, 4, 4]).with_block_bytes(64);
            let layouts = Layout::cluster(&shares);
            let cfg = ExternalPsrsConfig {
                perf: perf.clone(),
                mem_records: 256,
                tapes: 4,
                msg_records: 64,
                input: "input".into(),
                output: "output".into(),
                fused_redistribution: fused,
                streaming_merge: false,
                pipeline: PipelineConfig::off(),
                kernel: SortKernel::default(),
                splitter: SplitterStrategy::Flat,
            };
            run_cluster(&spec, async move |ctx| {
                generate_to_disk(
                    &ctx.disk,
                    "input",
                    Benchmark::Uniform,
                    11,
                    layouts[ctx.rank],
                )
                .unwrap();
                psrs_external::<u32>(ctx, &cfg).await.unwrap();
                ctx.disk.read_file::<u32>("output").unwrap()
            })
        };
        let plain = run_mode(false);
        let fused = run_mode(true);
        // Identical results (same pivots, same data).
        for (a, b) in plain.nodes.iter().zip(&fused.nodes) {
            assert_eq!(a.value, b.value);
        }
        let flat: Vec<u32> = fused
            .nodes
            .iter()
            .flat_map(|nd| nd.value.iter().copied())
            .collect();
        assert_eq!(flat.len() as u64, n);
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        // The fused path skips writing + re-reading the partition files:
        // strictly fewer block transfers.
        let io_plain = plain.total_io().total_blocks();
        let io_fused = fused.total_io().total_blocks();
        assert!(
            io_fused < io_plain,
            "fused should save I/O: {io_fused} vs {io_plain}"
        );
    }

    #[test]
    fn temp_files_cleaned_up() {
        let spec = ClusterSpec::homogeneous(2).with_block_bytes(64);
        let perf = PerfVector::homogeneous(2);
        let n = perf.padded_size(1_000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = ExternalPsrsConfig {
            perf: perf.clone(),
            mem_records: 128,
            tapes: 4,
            msg_records: 64,
            input: "input".into(),
            output: "output".into(),
            fused_redistribution: false,
            streaming_merge: false,
            pipeline: PipelineConfig::off(),
            kernel: SortKernel::default(),
            splitter: SplitterStrategy::Flat,
        };
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "input", Benchmark::Uniform, 6, layouts[ctx.rank]).unwrap();
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

    #[test]
    fn phase_marks_present_and_ordered() {
        let spec = ClusterSpec::homogeneous(2).with_block_bytes(64);
        let perf = PerfVector::homogeneous(2);
        let n = perf.padded_size(2_000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = ExternalPsrsConfig {
            perf: perf.clone(),
            mem_records: 128,
            tapes: 4,
            msg_records: 64,
            input: "input".into(),
            output: "output".into(),
            fused_redistribution: false,
            streaming_merge: false,
            pipeline: PipelineConfig::off(),
            kernel: SortKernel::default(),
            splitter: SplitterStrategy::Flat,
        };
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "input", Benchmark::Uniform, 7, layouts[ctx.rank]).unwrap();
            psrs_external::<u32>(ctx, &cfg).await.unwrap();
        });
        for node in &report.nodes {
            let names: Vec<&str> = node.phases.iter().map(|m| m.name).collect();
            assert_eq!(
                names,
                vec!["local-sort", "pivots", "partition", "redistribute", "merge"]
            );
            assert!(node.phases.windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    fn run_with(
        spec: &ClusterSpec,
        cfg: &ExternalPsrsConfig,
        bench: Benchmark,
        n: u64,
        seed: u64,
    ) -> cluster::ClusterReport<NodeResult> {
        let shares = cfg.perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = cfg.clone();
        run_cluster(spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
            let outcome = psrs_external::<u32>(ctx, &cfg).await.unwrap();
            assert!(is_sorted_file::<u32>(&ctx.disk, "output").unwrap());
            let output = ctx.disk.read_file::<u32>("output").unwrap();
            NodeResult { outcome, output }
        })
    }

    fn streamed_cfg(perf: &PerfVector, mem: usize, tapes: usize, msg: usize) -> ExternalPsrsConfig {
        ExternalPsrsConfig::new(perf.clone(), mem)
            .with_tapes(tapes)
            .with_msg_records(msg)
            .with_streaming_merge(true)
    }

    #[test]
    fn streamed_end_to_end_heterogeneous() {
        let spec = ClusterSpec::new(vec![1, 1, 4, 4]).with_block_bytes(64);
        let perf = PerfVector::paper_1144();
        let n = perf.padded_size(10_000);
        let cfg = streamed_cfg(&perf, 256, 4, 64);
        let report = run_with(&spec, &cfg, Benchmark::Uniform, n, 2);
        let results: Vec<NodeResult> = report.nodes.into_iter().map(|nd| nd.value).collect();
        assert_correct(&results, &perf, Benchmark::Uniform, n, 2);
        let bound = 4 * CHUNK_CREDITS as u64 * 64;
        for r in &results {
            assert!(
                r.outcome.peak_buffered_records <= bound,
                "peak {} exceeds credit bound {bound}",
                r.outcome.peak_buffered_records
            );
        }
    }

    #[test]
    fn streamed_matches_staged_and_is_cheaper() {
        let spec = || ClusterSpec::new(vec![1, 1, 4, 4]).with_block_bytes(64);
        let perf = PerfVector::paper_1144();
        let n = perf.padded_size(10_000);
        let staged_cfg = streamed_cfg(&perf, 256, 4, 64).with_streaming_merge(false);
        let staged = run_with(&spec(), &staged_cfg, Benchmark::Uniform, n, 11);
        let streamed = run_with(
            &spec(),
            &streamed_cfg(&perf, 256, 4, 64),
            Benchmark::Uniform,
            n,
            11,
        );
        // Same pivots, same data: byte-identical per-node outputs.
        for (a, b) in staged.nodes.iter().zip(&streamed.nodes) {
            assert_eq!(a.value.output, b.value.output);
        }
        // The streamed path never writes partition or receive staging
        // files: strictly fewer block transfers and at least the p·p
        // receive files fewer creations cluster-wide.
        let io_staged = staged.total_io();
        let io_streamed = streamed.total_io();
        assert!(
            io_streamed.total_blocks() < io_staged.total_blocks(),
            "streamed should save I/O: {} vs {}",
            io_streamed.total_blocks(),
            io_staged.total_blocks()
        );
        assert!(
            io_staged.files_created >= io_streamed.files_created + 16,
            "staging files should disappear: {} vs {}",
            io_staged.files_created,
            io_streamed.files_created
        );
    }

    #[test]
    fn grouped_splitter_external_matches_flat() {
        // Two-level splitter selection on a 9-node mixed-speed cluster:
        // the staged and streamed paths both stay correct, and the
        // concatenated output is byte-identical to the flat baseline
        // (same sorted multiset, duplicates included).
        let hardware = vec![1u64, 2, 1, 4, 1, 2, 4, 1, 2];
        let perf = PerfVector::new(hardware.clone());
        let n = perf.padded_size(12_000);
        let spec = || ClusterSpec::new(hardware.clone()).with_block_bytes(64);
        let base = streamed_cfg(&perf, 512, 4, 64).with_streaming_merge(false);
        for streaming in [false, true] {
            let flat_cfg = base.clone().with_streaming_merge(streaming);
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
                    "grouped output diverged (streaming={streaming}, {bench:?})"
                );
            }
        }
    }

    #[test]
    fn streamed_beats_fused_on_receiver_io() {
        // The fused path already skips the partition files; streaming
        // additionally skips the receive files, so it must still be
        // strictly cheaper than fused.
        let spec = || ClusterSpec::homogeneous(4).with_block_bytes(64);
        let perf = PerfVector::homogeneous(4);
        let n = perf.padded_size(8_000);
        let fused_cfg = streamed_cfg(&perf, 256, 4, 64)
            .with_streaming_merge(false)
            .with_fused_redistribution(true);
        let fused = run_with(&spec(), &fused_cfg, Benchmark::Uniform, n, 5);
        let streamed = run_with(
            &spec(),
            &streamed_cfg(&perf, 256, 4, 64),
            Benchmark::Uniform,
            n,
            5,
        );
        for (a, b) in fused.nodes.iter().zip(&streamed.nodes) {
            assert_eq!(a.value.output, b.value.output);
        }
        assert!(
            streamed.total_io().total_blocks() < fused.total_io().total_blocks(),
            "streamed should beat fused: {} vs {}",
            streamed.total_io().total_blocks(),
            fused.total_io().total_blocks()
        );
    }

    #[test]
    fn streamed_all_benchmarks_tiny_messages() {
        // msg_records = 8 exercises the credit protocol hard (many
        // chunks per stream); the skewed benchmarks route everything to
        // few nodes, stressing stalls and early terminators.
        let spec = ClusterSpec::homogeneous(3).with_block_bytes(64);
        let perf = PerfVector::homogeneous(3);
        let n = perf.padded_size(2_000);
        for bench in Benchmark::ALL {
            let cfg = streamed_cfg(&perf, 128, 4, 8);
            let report = run_with(&spec, &cfg, bench, n, 4);
            let results: Vec<NodeResult> = report.nodes.into_iter().map(|nd| nd.value).collect();
            assert_correct(&results, &perf, bench, n, 4);
        }
    }

    #[test]
    fn streamed_pipelined_matches_plain() {
        let spec = || ClusterSpec::homogeneous(4).with_block_bytes(64);
        let perf = PerfVector::homogeneous(4);
        let n = perf.padded_size(6_000);
        let plain = run_with(
            &spec(),
            &streamed_cfg(&perf, 256, 4, 64),
            Benchmark::Gaussian,
            n,
            9,
        );
        let piped_cfg =
            streamed_cfg(&perf, 256, 4, 64).with_pipeline(PipelineConfig::with_workers(2));
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
    fn streamed_temp_files_cleaned_up() {
        let spec = ClusterSpec::homogeneous(2).with_block_bytes(64);
        let perf = PerfVector::homogeneous(2);
        let n = perf.padded_size(1_000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = streamed_cfg(&perf, 128, 4, 64);
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "input", Benchmark::Uniform, 6, layouts[ctx.rank]).unwrap();
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
        for nd in &report.nodes {
            assert!(nd.value.is_empty(), "leftover temp files: {:?}", nd.value);
        }
    }

    #[test]
    fn streamed_phase_marks() {
        let spec = ClusterSpec::homogeneous(2).with_block_bytes(64);
        let perf = PerfVector::homogeneous(2);
        let n = perf.padded_size(2_000);
        let cfg = streamed_cfg(&perf, 128, 4, 64);
        let report = run_with(&spec, &cfg, Benchmark::Uniform, n, 7);
        for node in &report.nodes {
            let names: Vec<&str> = node.phases.iter().map(|m| m.name).collect();
            assert_eq!(names, vec!["local-sort", "pivots", "exchange-merge"]);
            assert!(node.phases.windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    #[test]
    fn streamed_single_node() {
        let spec = ClusterSpec::homogeneous(1).with_block_bytes(64);
        let perf = PerfVector::homogeneous(1);
        let n = perf.padded_size(1_500);
        let cfg = streamed_cfg(&perf, 128, 4, 64);
        let report = run_with(&spec, &cfg, Benchmark::Gaussian, n, 8);
        let results: Vec<NodeResult> = report.nodes.into_iter().map(|nd| nd.value).collect();
        assert_correct(&results, &perf, Benchmark::Gaussian, n, 8);
    }
}
