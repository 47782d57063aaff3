//! Range-partitioned parallel k-way merge.
//!
//! Splits one k-way merge of sorted on-disk segments into `W` disjoint
//! slices of the *output* and runs the existing loser tree over each slice
//! on its own thread. The slices are chosen by exact rank selection in the
//! total order `(sort_key, segment index, position)` — precisely the order
//! the sequential tree emits records in (equal cached keys fall back to the
//! full `(record, source)` comparison, and for `KEY_IS_TOTAL` records equal
//! keys mean equal records, so source order *is* position order). Each
//! worker therefore produces a contiguous byte range of the sequential
//! output, and stitching the workers back together in index order yields a
//! byte-identical result for every worker count.
//!
//! **Splitter probes.** Cut positions are found by a multi-sequence
//! selection: repeatedly probe the median record of each segment's
//! candidate interval (a metered *random* read via [`BlockReader::read_at`]),
//! take the weighted median of those probes as a pivot, and rank the pivot
//! in every interval by binary search. Each round retires at least a
//! quarter of the remaining candidates, so one cut costs `O(k · log² n)`
//! probes — and because consecutive probes land in the same cached block
//! more often than not, the *metered* probe count stays near
//! `k · ⌈log₂ blocks⌉` per cut (asserted by a regression test).
//!
//! **Metering invariance.** Workers read their slice of each segment
//! through pooled block readers. A worker whose slice starts mid-block
//! first faults that boundary block in with a metered random read (the
//! predecessor worker also reads it, sequentially); a worker whose slice
//! starts on a block boundary streams from there directly. Summed over all
//! workers this makes `blocks_read − random_reads` and
//! `bytes_read − seek_bytes` *identical* to the one-worker merge, which is
//! what the differential suite asserts. Output order (and therefore every
//! write-side counter) is unchanged by construction.

use std::sync::mpsc::sync_channel;
use std::time::Instant;

use pdm::{BlockReader, BufferPool, Disk, PdmResult, Record};

use crate::config::PipelineConfig;
use crate::kernel::SortKernel;
use crate::loser_tree::LoserTree;
use crate::stream::Bounded;

/// Hard cap on merge workers (also sizes the static span-name table).
pub const MAX_MERGE_WORKERS: usize = 8;

/// Records per batch shipped from a merge worker to the writer thread.
const BATCH_RECORDS: usize = 1024;

/// Batches each worker may queue ahead of the writer (backpressure bound).
const QUEUE_BATCHES: usize = 4;

/// Static span names so worker spans need no allocation (`record_span`
/// takes `&'static str`); mirrors the run-formation `chunk-sort-N` table.
fn worker_span_name(w: usize) -> &'static str {
    const NAMES: [&str; MAX_MERGE_WORKERS] = [
        "merge.worker-0",
        "merge.worker-1",
        "merge.worker-2",
        "merge.worker-3",
        "merge.worker-4",
        "merge.worker-5",
        "merge.worker-6",
        "merge.worker-7",
    ];
    NAMES.get(w).copied().unwrap_or("merge.worker")
}

/// One sorted input to the merge: `len` records of `file` starting at
/// record index `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSegment {
    /// File name on the disk.
    pub file: String,
    /// First record of the segment (record index, not bytes).
    pub offset: u64,
    /// Records in the segment.
    pub len: u64,
    /// The records before `offset` were already streamed by an earlier merge
    /// (polyphase consumes a tape across many steps). A resumed segment that
    /// starts mid-block faults its first block in as a metered *random*
    /// read — the sequential baseline read that block once already, so
    /// streaming into it again would inflate the sequential counters.
    pub resume: bool,
}

impl MergeSegment {
    /// Convenience constructor (`resume` off: a standalone merge whose
    /// baseline also opens a fresh reader at `offset`).
    pub fn new(file: impl Into<String>, offset: u64, len: u64) -> Self {
        MergeSegment {
            file: file.into(),
            offset,
            len,
            resume: false,
        }
    }

    /// Marks whether this segment resumes a partially-consumed stream.
    #[must_use]
    pub fn resumed(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// A whole file as one segment.
    pub fn whole_file<R: Record>(disk: &Disk, name: &str) -> PdmResult<Self> {
        Ok(MergeSegment::new(name, 0, disk.len_records::<R>(name)?))
    }
}

/// The cut table produced by [`plan_cuts`]: `cuts[w][s]` is how many
/// records of segment `s` belong to workers `< w`, so worker `w` merges
/// `[cuts[w][s], cuts[w+1][s])` of every segment. Row `0` is all zeros and
/// row `W` is the segment lengths.
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// Per-boundary, per-segment cut positions (`W + 1` rows).
    pub cuts: Vec<Vec<u64>>,
    /// Total records across all segments.
    pub total: u64,
}

impl MergePlan {
    /// Number of workers the plan was computed for.
    pub fn workers(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Records assigned to worker `w`.
    pub fn worker_records(&self, w: usize) -> u64 {
        self.cuts[w + 1]
            .iter()
            .zip(&self.cuts[w])
            .map(|(b, a)| b - a)
            .sum()
    }
}

/// Resolves the worker count an upcoming merge will actually use.
///
/// Returns 1 (sequential loser tree) unless the configuration asks for more
/// *and* the record type's `sort_key` is a total order (range cuts reproduce
/// the sequential tie-break only when equal keys mean equal records) *and*
/// the merge is big enough to split. Capped at [`MAX_MERGE_WORKERS`].
///
/// An *advisory* worker count (set via
/// [`PipelineConfig::with_advisory_merge_workers`] or
/// [`PipelineConfig::adaptive`]) is a *ceiling*, not an order: the planner
/// prices every candidate in `1..=w` with the device's contention model
/// ([`crate::planner::choose_merge_workers`]) — splitter-probe seeks plus
/// queue wait at the candidate's stream count versus the CPU the extra
/// workers save — and picks the cheapest. Because the sequential merge is
/// always a candidate, an adaptive plan can never price worse than it; on
/// hardware like the paper's SCSI drives (queue depth 1) that means falling
/// back to 1 worker and bumping `merge.planner.seq_fallback`. Explicit
/// counts ([`PipelineConfig::with_merge_workers`]) are always honoured.
pub fn planned_workers<R: Record>(
    disk: &Disk,
    pipeline: &PipelineConfig,
    fan_in: usize,
    records: u64,
    kernel: SortKernel,
) -> usize {
    let w = pipeline.effective_merge_workers().min(MAX_MERGE_WORKERS);
    if w <= 1 || !R::HAS_SORT_KEY || !R::KEY_IS_TOTAL || fan_in < 2 || records < 2 * w as u64 {
        return 1;
    }
    if pipeline.merge_workers_explicit {
        return w;
    }
    let shape = crate::planner::MergeShape {
        fan_in,
        records,
        record_size: R::SIZE,
        block_bytes: disk.block_bytes(),
        key_based: kernel.key_based::<R>(),
    };
    let chosen = crate::planner::choose_merge_workers(
        disk.model(),
        &crate::planner::CpuCost::default(),
        &shape,
        w,
        pipeline.enabled,
    );
    obs::counter_add("merge.planner.plans", 1);
    obs::gauge_set("merge.planner.chosen_workers", chosen as f64);
    if chosen == 1 {
        obs::counter_add("merge.planner.seq_fallback", 1);
    }
    chosen
}

/// Whether a random block access on `disk` is priced at more than twice a
/// sequential transfer of the same size. In that regime the planner treats
/// splitter probes (all random reads) as a predicted net loss for advisory
/// parallel-merge requests: `scsi_2000` at 32 KiB blocks sits near 4.5×,
/// `nvme_modern` near 1.4×.
pub fn seek_dominated(disk: &Disk) -> bool {
    let bytes = disk.block_bytes() as u64;
    let model = disk.model();
    model.random_block(bytes) > model.sequential_block(bytes) * 2.0
}

/// A probing cursor over one segment (random reads, pooled buffer).
///
/// Probes dedupe at *block* granularity: the first probe into a block is a
/// metered random read, after which every key in that block is cached (the
/// block is buffered, so harvesting the rest of it is free). The metered
/// probe count of a whole cut computation is therefore the number of
/// distinct blocks its binary-search paths touch — logarithmic in the
/// segment's block count — rather than the number of record probes.
struct Prober<R: Record> {
    rd: BlockReader<R>,
    offset: u64,
    len: u64,
    /// Records per block of the underlying file.
    rpb: u64,
    /// Absolute record position → cached `sort_key`.
    keys: std::collections::HashMap<u64, u64>,
}

impl<R: Record> Prober<R> {
    /// `sort_key` of the segment's `i`-th record (one metered random read
    /// per distinct block, free afterwards).
    fn key(&mut self, i: u64) -> PdmResult<u64> {
        debug_assert!(i < self.len);
        let pos = self.offset + i;
        if let Some(&k) = self.keys.get(&pos) {
            return Ok(k);
        }
        let k = self.rd.read_at(pos)?.sort_key(); // meters the block fault
        self.keys.insert(pos, k);
        // The block is buffered now — harvest every in-segment key in it
        // with unmetered reads.
        let blk = pos / self.rpb;
        let lo = (blk * self.rpb).max(self.offset);
        let hi = ((blk + 1) * self.rpb).min(self.offset + self.len);
        for p in lo..hi {
            if p != pos {
                let kp = self.rd.read_at(p)?.sort_key();
                self.keys.insert(p, kp);
            }
        }
        Ok(k)
    }
}

/// Computes the cut table for `workers` over `segments` by exact rank
/// selection: boundary `w` is the global rank `⌊total·w/W⌋` position in the
/// `(sort_key, segment, position)` order. Exposed for the balance and
/// probe-bound tests.
pub fn plan_cuts<R: Record>(
    disk: &Disk,
    segments: &[MergeSegment],
    workers: usize,
    pool: &BufferPool,
) -> PdmResult<MergePlan> {
    let total: u64 = segments.iter().map(|s| s.len).sum();
    let rpb = (disk.block_bytes() / R::SIZE).max(1) as u64;
    let mut probers = Vec::with_capacity(segments.len());
    for seg in segments {
        probers.push(Prober::<R> {
            rd: disk.open_reader_pooled::<R>(&seg.file, Some(pool.clone()))?,
            offset: seg.offset,
            len: seg.len,
            rpb,
            keys: std::collections::HashMap::new(),
        });
    }
    let mut cuts = Vec::with_capacity(workers + 1);
    cuts.push(vec![0u64; segments.len()]);
    for w in 1..workers {
        let target = ((total as u128 * w as u128) / workers as u128) as u64;
        cuts.push(select_cut(&mut probers, target)?);
    }
    cuts.push(segments.iter().map(|s| s.len).collect());
    Ok(MergePlan { cuts, total })
}

/// Per-segment positions of the global rank-`target` boundary: exactly
/// `target` records order before the returned cut in the
/// `(sort_key, segment, position)` total order.
fn select_cut<R: Record>(probers: &mut [Prober<R>], target: u64) -> PdmResult<Vec<u64>> {
    let k = probers.len();
    let mut lo = vec![0u64; k];
    let mut hi: Vec<u64> = probers.iter().map(|p| p.len).collect();
    // Records still to take from the remaining intervals `[lo, hi)`;
    // everything before `lo` is already below the cut.
    let mut t = target;
    loop {
        let sizes: Vec<u64> = lo.iter().zip(&hi).map(|(a, b)| b - a).collect();
        let remaining: u64 = sizes.iter().sum();
        if t == 0 {
            return Ok(lo);
        }
        if t >= remaining {
            return Ok(hi);
        }
        // Probe the median of every non-empty interval; the weighted median
        // of the probes (weight = interval size) retires ≥ ~¼ of the
        // candidates per round.
        let mut cands: Vec<(u64, usize, u64)> = Vec::with_capacity(k);
        for (i, p) in probers.iter_mut().enumerate() {
            if sizes[i] > 0 {
                let m = lo[i] + (sizes[i] - 1) / 2;
                cands.push((p.key(m)?, i, m));
            }
        }
        cands.sort_unstable();
        let half = remaining / 2;
        let mut acc = 0u64;
        let mut pivot = cands[cands.len() - 1];
        for &c in &cands {
            acc += sizes[c.1];
            if acc > half {
                pivot = c;
                break;
            }
        }
        // Rank the pivot in every interval (records ordering before it).
        let mut below = 0u64;
        let mut ranks = vec![0u64; k];
        for (i, p) in probers.iter_mut().enumerate() {
            ranks[i] = if sizes[i] == 0 {
                lo[i]
            } else {
                lower_bound(p, lo[i], hi[i], pivot, i)?
            };
            below += ranks[i] - lo[i];
        }
        if t <= below {
            // The cut lies entirely among records below the pivot.
            hi = ranks;
        } else {
            // Everything below the pivot — and the pivot itself — is below
            // the cut.
            t -= below + 1;
            lo = ranks;
            lo[pivot.1] = pivot.2 + 1;
        }
    }
}

/// First position in `[lo, hi)` of `probers[seg]` whose
/// `(key, segment, position)` is ≥ `pivot`.
fn lower_bound<R: Record>(
    p: &mut Prober<R>,
    mut lo: u64,
    mut hi: u64,
    pivot: (u64, usize, u64),
    seg: usize,
) -> PdmResult<u64> {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let key = p.key(mid)?;
        if (key, seg, mid) < pivot {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// What a parallel merge did, for billing and reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelMergeOutcome {
    /// Records emitted (sum over workers).
    pub records: u64,
    /// Loser-tree selects, summed over workers. *Not* equal to the
    /// sequential tree's count (each worker's tree has its own fan-in and
    /// priming); callers must not difference this across worker counts.
    pub comparisons: u64,
    /// Workers actually used.
    pub workers: usize,
    /// Metered random reads spent planning the cuts (splitter probes).
    pub probe_random_reads: u64,
    /// Bytes transferred by those probes.
    pub probe_seek_bytes: u64,
}

/// Merges `segments` with `workers` range-partitioned loser trees, feeding
/// merged batches to `emit` strictly in output order. The caller owns the
/// output (a pooled writer, a write-behind writer, a polyphase tape…), so
/// this works at every merge call site.
///
/// Workers ship batches over bounded channels; the calling thread drains
/// worker 0 to exhaustion, then worker 1, and so on — the channel *is* the
/// reorder buffer, since each worker's output is one contiguous slice of
/// the final sequence.
pub fn parallel_merge_segments<R, F>(
    disk: &Disk,
    segments: &[MergeSegment],
    workers: usize,
    pool: &BufferPool,
    mut emit: F,
) -> PdmResult<ParallelMergeOutcome>
where
    R: Record,
    F: FnMut(&[R]) -> PdmResult<()>,
{
    let w = workers.clamp(1, MAX_MERGE_WORKERS);
    let probe_before = disk.stats().snapshot();
    let plan = if w > 1 {
        plan_cuts::<R>(disk, segments, w, pool)?
    } else {
        // One worker takes everything; no probes.
        MergePlan {
            cuts: vec![
                vec![0; segments.len()],
                segments.iter().map(|s| s.len).collect(),
            ],
            total: segments.iter().map(|s| s.len).sum(),
        }
    };
    let probes = disk.stats().snapshot().delta(&probe_before);

    let rpb = (disk.block_bytes() / R::SIZE).max(1) as u64;
    let node_obs = obs::current();
    let traced = node_obs.is_enabled();
    let wall_base = node_obs.elapsed();
    let epoch = Instant::now();

    let mut total_records = 0u64;
    let mut total_blocks = 0u64;
    let mut comparisons = 0u64;
    let mut spans: Vec<(usize, f64, f64)> = Vec::new();

    // Blocks each worker's ranges span (for the obs counter).
    for wi in 0..w {
        total_blocks += segments
            .iter()
            .enumerate()
            .map(|(s, seg)| {
                let (a, b) = (plan.cuts[wi][s], plan.cuts[wi + 1][s]);
                if a < b {
                    (seg.offset + b - 1) / rpb - (seg.offset + a) / rpb + 1
                } else {
                    0
                }
            })
            .sum::<u64>();
    }

    if w == 1 {
        // Inline fast path: no threads, no channels — identical tree, so the
        // select count matches a sequential merge of the same views exactly.
        let t0 = epoch.elapsed().as_secs_f64();
        let ranges: Vec<(u64, u64)> = (0..segments.len())
            .map(|s| (plan.cuts[0][s], plan.cuts[1][s]))
            .collect();
        let mut err = None;
        let mut sink = |batch: Vec<R>| -> bool {
            total_records += batch.len() as u64;
            match emit(&batch) {
                Ok(()) => true,
                Err(e) => {
                    err = Some(e);
                    false
                }
            }
        };
        let comps = run_range_worker::<R>(disk, segments, pool, rpb, &ranges, &mut sink)?;
        if let Some(e) = err {
            return Err(e);
        }
        comparisons = comps;
        if traced {
            spans.push((0, t0, epoch.elapsed().as_secs_f64()));
        }
    } else {
        std::thread::scope(|scope| -> PdmResult<()> {
            let mut handles = Vec::with_capacity(w);
            for wi in 0..w {
                let ranges: Vec<(u64, u64)> = (0..segments.len())
                    .map(|s| (plan.cuts[wi][s], plan.cuts[wi + 1][s]))
                    .collect();
                let (tx, rx) = sync_channel::<Vec<R>>(QUEUE_BATCHES);
                let handle = std::thread::Builder::new()
                    .name(format!("merge-worker-{wi}"))
                    .spawn_scoped(scope, move || -> PdmResult<(u64, f64, f64)> {
                        let t0 = epoch.elapsed().as_secs_f64();
                        let mut sink = |batch: Vec<R>| tx.send(batch).is_ok();
                        let comps =
                            run_range_worker::<R>(disk, segments, pool, rpb, &ranges, &mut sink)?;
                        Ok((comps, t0, epoch.elapsed().as_secs_f64()))
                    })
                    .expect("spawn merge worker");
                handles.push((wi, rx, handle));
            }
            // Drain workers strictly in index order: worker w's slice
            // precedes worker w+1's in the output.
            for (wi, rx, handle) in handles {
                for batch in rx.iter() {
                    emit(&batch)?;
                    total_records += batch.len() as u64;
                }
                let (comps, t0, t1) = handle.join().expect("merge worker panicked")?;
                comparisons += comps;
                if traced {
                    spans.push((wi, t0, t1));
                }
            }
            Ok(())
        })?;
    }

    if traced {
        for &(wi, t0, t1) in &spans {
            node_obs.record_span(
                worker_span_name(wi),
                obs::SpanKind::Task,
                wall_base + t0,
                wall_base + t1,
                None,
            );
            node_obs.hist_record("extsort.parmerge.worker_us", ((t1 - t0) * 1e6) as u64);
        }
        node_obs.counter_add("merge.range.records", total_records);
        node_obs.counter_add("merge.range.blocks", total_blocks);
    }

    Ok(ParallelMergeOutcome {
        records: total_records,
        comparisons,
        workers: w,
        probe_random_reads: probes.random_reads,
        probe_seek_bytes: probes.seek_bytes,
    })
}

/// One worker's merge body: open a pooled reader per non-empty range
/// (applying the boundary-block metering rule), run a loser tree over the
/// bounded views, and hand off records in batches through `sink` (which
/// returns `false` when the consumer has bailed).
fn run_range_worker<R: Record>(
    disk: &Disk,
    segments: &[MergeSegment],
    pool: &BufferPool,
    rpb: u64,
    ranges: &[(u64, u64)],
    sink: &mut dyn FnMut(Vec<R>) -> bool,
) -> PdmResult<u64> {
    let mut readers: Vec<(BlockReader<R>, u64)> = Vec::new();
    for (s, seg) in segments.iter().enumerate() {
        let (a, b) = ranges[s];
        if a >= b {
            continue;
        }
        let mut rd = disk.open_reader_pooled::<R>(&seg.file, Some(pool.clone()))?;
        let start = seg.offset + a;
        rd.seek(start);
        if (a > 0 || seg.resume) && start % rpb != 0 {
            // Mid-block boundary: whoever streamed the records before
            // `start` (the predecessor worker, or — for a resumed segment —
            // an earlier merge step) already read this block sequentially,
            // so fault it in as a metered *random* read. The extra transfer
            // lands in `random_reads`/`seek_bytes`, keeping the sequential
            // counters worker-count-invariant.
            rd.read_at(start)?;
        }
        readers.push((rd, b - a));
    }
    let mut views = Vec::with_capacity(readers.len());
    for (rd, n) in readers.iter_mut() {
        views.push(Bounded::new(rd, *n));
    }
    let mut tree = LoserTree::new(views)?;
    loop {
        let mut batch: Vec<R> = Vec::with_capacity(BATCH_RECORDS);
        if tree.next_batch(&mut batch, BATCH_RECORDS)? == 0 || !sink(batch) {
            break; // merge exhausted, or the consumer bailed on an I/O error
        }
    }
    Ok(tree.comparisons())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segments_for(disk: &Disk, runs: &[Vec<u32>]) -> Vec<MergeSegment> {
        runs.iter()
            .enumerate()
            .map(|(i, r)| {
                let name = format!("seg{i}");
                disk.write_file(&name, r).unwrap();
                MergeSegment::new(name, 0, r.len() as u64)
            })
            .collect()
    }

    fn merged(disk: &Disk, segs: &[MergeSegment], workers: usize) -> Vec<u32> {
        let pool = BufferPool::default();
        let mut out = Vec::new();
        parallel_merge_segments::<u32, _>(disk, segs, workers, &pool, |batch| {
            out.extend_from_slice(batch);
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn matches_sequential_for_every_worker_count() {
        let disk = Disk::in_memory(64);
        let runs: Vec<Vec<u32>> = vec![
            (0..500).map(|i| i * 3).collect(),
            (0..300).map(|i| i * 5).collect(),
            vec![7; 200],
            (0..100).rev().map(|i| 1000 - i).collect(),
        ];
        let segs = segments_for(&disk, &runs);
        let mut expect: Vec<u32> = runs.concat();
        expect.sort_unstable();
        for w in [1, 2, 3, 4, 8] {
            assert_eq!(merged(&disk, &segs, w), expect, "workers={w}");
        }
    }

    #[test]
    fn plan_balances_heavy_duplicates() {
        let disk = Disk::in_memory(64);
        // All-equal keys: positional selection must still split evenly.
        let runs: Vec<Vec<u32>> = vec![vec![42; 997], vec![42; 503], vec![42; 250]];
        let segs = segments_for(&disk, &runs);
        let pool = BufferPool::default();
        for w in [2usize, 3, 4, 8] {
            let plan = plan_cuts::<u32>(&disk, &segs, w, &pool).unwrap();
            let cap = plan.total.div_ceil(w as u64);
            for wi in 0..w {
                assert!(
                    plan.worker_records(wi) <= cap,
                    "worker {wi} of {w} got {} > {cap}",
                    plan.worker_records(wi)
                );
            }
            let sum: u64 = (0..w).map(|wi| plan.worker_records(wi)).sum();
            assert_eq!(sum, plan.total);
        }
    }

    #[test]
    fn cut_rows_are_monotone() {
        let disk = Disk::in_memory(64);
        let runs: Vec<Vec<u32>> = (0..5)
            .map(|s| (0..200u32).map(|i| i * 5 + s).collect())
            .collect();
        let segs = segments_for(&disk, &runs);
        let pool = BufferPool::default();
        let plan = plan_cuts::<u32>(&disk, &segs, 4, &pool).unwrap();
        for w in 0..4 {
            for s in 0..segs.len() {
                assert!(plan.cuts[w][s] <= plan.cuts[w + 1][s]);
            }
        }
    }

    #[test]
    fn planned_workers_gates() {
        // The default in-memory disk prices I/O like the paper's SCSI
        // drives — an explicit worker count must be honoured regardless.
        let disk = Disk::in_memory(64);
        let par = PipelineConfig::off().with_merge_workers(4);
        assert_eq!(
            planned_workers::<u32>(&disk, &par, 8, 1 << 20, SortKernel::Comparison),
            4
        );
        // Sequential by default.
        assert_eq!(
            planned_workers::<u32>(
                &disk,
                &PipelineConfig::off(),
                8,
                1 << 20,
                SortKernel::Comparison
            ),
            1
        );
        // Too few records to split.
        assert_eq!(
            planned_workers::<u32>(&disk, &par, 8, 7, SortKernel::Comparison),
            1
        );
        // Single input stream: a range split buys nothing over the tree.
        assert_eq!(
            planned_workers::<u32>(&disk, &par, 1, 1 << 20, SortKernel::Comparison),
            1
        );
        // Keys that are not a total order cannot reproduce the sequential
        // tie-break from positional cuts.
        assert_eq!(
            planned_workers::<pdm::record::KeyPayload>(
                &disk,
                &par,
                8,
                1 << 20,
                SortKernel::Comparison
            ),
            1
        );
        // Cap.
        let wide = PipelineConfig::off().with_merge_workers(64);
        assert_eq!(
            planned_workers::<u32>(&disk, &wide, 8, 1 << 20, SortKernel::Comparison),
            MAX_MERGE_WORKERS
        );
    }

    #[test]
    fn advisory_workers_respect_the_seek_cliff() {
        use pdm::DiskModel;
        let scsi = Disk::in_memory(32 * 1024).with_model(DiskModel::scsi_2000());
        let nvme = Disk::in_memory(32 * 1024).with_model(DiskModel::nvme_modern());
        assert!(seek_dominated(&scsi), "SCSI must read as seek-dominated");
        assert!(!seek_dominated(&nvme), "NVMe must not");

        let advisory = PipelineConfig::off().with_advisory_merge_workers(4);
        // On seek-dominated hardware the advisory request falls back to the
        // sequential tree; on NVMe it goes parallel.
        assert_eq!(
            planned_workers::<u32>(&scsi, &advisory, 8, 1 << 20, SortKernel::Comparison),
            1
        );
        assert_eq!(
            planned_workers::<u32>(&nvme, &advisory, 8, 1 << 20, SortKernel::Comparison),
            4
        );
        // An explicit order overrides the veto on the same hardware.
        let explicit = PipelineConfig::off().with_merge_workers(4);
        assert_eq!(
            planned_workers::<u32>(&scsi, &explicit, 8, 1 << 20, SortKernel::Comparison),
            4
        );
    }

    #[test]
    fn seq_fallback_counter_fires_on_scsi_and_stays_silent_on_nvme() {
        use pdm::DiskModel;
        let advisory = PipelineConfig::off().with_advisory_merge_workers(4);

        let scsi_obs = obs::Obs::enabled();
        {
            let _g = obs::install(scsi_obs.clone());
            let scsi = Disk::in_memory(32 * 1024).with_model(DiskModel::scsi_2000());
            assert_eq!(
                planned_workers::<u32>(&scsi, &advisory, 8, 1 << 20, SortKernel::Comparison),
                1
            );
        }
        let scsi_node = scsi_obs.finish(0, "scsi".to_string());
        assert_eq!(
            scsi_node.metrics.counters.get("merge.planner.seq_fallback"),
            Some(&1),
            "the planner must record its retreat to the sequential merge"
        );
        assert_eq!(
            scsi_node.metrics.counters.get("merge.planner.plans"),
            Some(&1)
        );
        assert_eq!(
            scsi_node.metrics.gauges.get("merge.planner.chosen_workers"),
            Some(&1.0)
        );

        let nvme_obs = obs::Obs::enabled();
        {
            let _g = obs::install(nvme_obs.clone());
            let nvme = Disk::in_memory(32 * 1024).with_model(DiskModel::nvme_modern());
            assert_eq!(
                planned_workers::<u32>(&nvme, &advisory, 8, 1 << 20, SortKernel::Comparison),
                4
            );
        }
        let nvme_node = nvme_obs.finish(0, "nvme".to_string());
        assert_eq!(
            nvme_node.metrics.counters.get("merge.planner.seq_fallback"),
            None,
            "no fallback on a deep-queue device"
        );
        assert_eq!(
            nvme_node.metrics.gauges.get("merge.planner.chosen_workers"),
            Some(&4.0)
        );
    }

    #[test]
    fn non_seek_io_is_worker_count_invariant() {
        for block_bytes in [64usize, 256, 1024] {
            let disk = Disk::in_memory(block_bytes);
            let runs: Vec<Vec<u32>> = (0..6)
                .map(|s| (0..777u32).map(|i| i * 6 + s).collect())
                .collect();
            let segs = segments_for(&disk, &runs);
            let mut baseline = None;
            for w in [1usize, 2, 4] {
                let before = disk.stats().snapshot();
                let out = merged(&disk, &segs, w);
                let d = disk.stats().snapshot().delta(&before);
                assert_eq!(out.len(), 6 * 777);
                let seq_reads = (d.blocks_read - d.random_reads, d.bytes_read - d.seek_bytes);
                match baseline {
                    None => baseline = Some(seq_reads),
                    Some(b) => assert_eq!(
                        seq_reads, b,
                        "non-seek reads changed at workers={w}, block={block_bytes}"
                    ),
                }
            }
        }
    }

    #[test]
    fn probe_reads_stay_logarithmic() {
        let disk = Disk::in_memory(64); // 16 records per block
        let n = 4096u32;
        let runs: Vec<Vec<u32>> = vec![
            (0..n).map(|i| i * 2).collect(),
            (0..n).map(|i| i * 2 + 1).collect(),
        ];
        let segs = segments_for(&disk, &runs);
        let pool = BufferPool::default();
        let out = parallel_merge_segments::<u32, _>(&disk, &segs, 2, &pool, |_| Ok(())).unwrap();
        // One cut over `runs` inputs, each spanning `blocks` blocks: the
        // binary-search probe paths touch at most ⌈log2 blocks⌉ distinct
        // blocks per run (metered reads dedupe within the buffered block).
        let blocks = (n as u64 * 4).div_ceil(64);
        let bound = runs.len() as u64 * (blocks as f64).log2().ceil() as u64;
        assert!(
            out.probe_random_reads <= bound,
            "probes {} exceed runs×⌈log2 blocks⌉ = {bound}",
            out.probe_random_reads
        );
        assert!(out.probe_random_reads > 0, "cut planning must probe");
    }
}
