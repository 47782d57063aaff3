//! Initial run formation with polyphase distribution.
//!
//! Reads the unsorted input once and writes sorted runs directly onto the
//! `T − 1` input tapes, laid out according to the **ideal (generalized
//! Fibonacci) distribution** of Knuth §5.4.2 so that the polyphase merge
//! terminates with a single run. Missing runs at the final level are
//! recorded as *dummy runs* (they merge for free).
//!
//! Two strategies:
//!
//! * **Chunk sort** — one memory load at a time, `⌈N/M⌉` runs of length `M`
//!   (what the paper's polyphase uses).
//! * **Replacement selection** — a heap of `M` records produces runs of
//!   expected length `2M` on random input and a single run on sorted input
//!   (the classic optimization; exercised by the ablation benches).
//!
//! With [`crate::config::PipelineConfig`] enabled, chunk sorting runs as a
//! read → sort → write pipeline: the calling thread reads chunk `i+1` and
//! writes finished chunks to the tapes while a pool of worker threads sorts
//! the chunks in flight. A reorder buffer hands sorted chunks to the
//! distributor strictly in input order, so tape assignment, file bytes and
//! metered block-I/O are identical to the sequential path.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pdm::{BlockReader, BlockWriter, Disk, PdmResult, Record};

use crate::config::{ExtSortConfig, RunFormation};
use crate::kernel::{sort_chunk, KernelWork};

/// Static span name for a pipeline worker (worker handles are `!Send`, so
/// workers report wall offsets back to the node thread, which records the
/// span under the worker's name).
fn worker_span_name(w: usize) -> &'static str {
    const NAMES: [&str; 8] = [
        "chunk-sort-0",
        "chunk-sort-1",
        "chunk-sort-2",
        "chunk-sort-3",
        "chunk-sort-4",
        "chunk-sort-5",
        "chunk-sort-6",
        "chunk-sort-7",
    ];
    NAMES.get(w).copied().unwrap_or("chunk-sort")
}

/// Where the runs of one tape ended up.
#[derive(Debug)]
pub struct TapeRuns {
    /// Disk file holding this tape's runs, concatenated front to back.
    pub name: String,
    /// Real run lengths, in order.
    pub runs: VecDeque<u64>,
    /// Dummy runs assigned to this tape by the ideal distribution.
    pub dummies: u64,
}

/// The result of run formation: per-tape run layouts plus work accounting.
#[derive(Debug)]
pub struct FormedRuns {
    /// One entry per input tape (`T − 1` of them).
    pub tapes: Vec<TapeRuns>,
    /// Total real runs across tapes.
    pub total_runs: u64,
    /// Records read from the input.
    pub records: u64,
    /// Full-record comparisons spent sorting the runs (the `n·⌈log₂ n⌉`
    /// estimate on the comparison kernel; cleanup/insertion-sort residue on
    /// the radix kernel).
    pub comparisons: u64,
    /// Key operations spent by the radix kernel (zero otherwise).
    pub key_ops: u64,
}

/// Chooses a destination tape for each new run so that the final layout
/// (real + dummy runs) matches an ideal polyphase level.
///
/// Level 0 is `(1, 0, …, 0)`; level `n` follows
/// `dₙ[j] = dₙ₋₁[0] + dₙ₋₁[j+1]` (with `dₙ[k−1] = dₙ₋₁[0]`), the
/// generalized Fibonacci recurrence of order `k`.
#[derive(Debug)]
pub struct Distributor {
    ideal: Vec<u64>,
    actual: Vec<u64>,
    level: u32,
}

impl Distributor {
    /// A distributor over `k ≥ 2` input tapes.
    ///
    /// Fails with [`pdm::PdmError::InvalidConfig`] for `k < 2` — polyphase
    /// cannot merge from fewer than two input tapes.
    pub fn new(k: usize) -> PdmResult<Self> {
        if k < 2 {
            return Err(pdm::PdmError::InvalidConfig(format!(
                "polyphase needs at least 2 input tapes, got {k}"
            )));
        }
        let mut ideal = vec![0u64; k];
        ideal[0] = 1;
        Ok(Distributor {
            ideal,
            actual: vec![0u64; k],
            level: 0,
        })
    }

    /// Advances to the next ideal level.
    fn level_up(&mut self) {
        let prev = self.ideal.clone();
        let k = prev.len();
        for j in 0..k {
            self.ideal[j] = prev[0] + if j + 1 < k { prev[j + 1] } else { 0 };
        }
        self.level += 1;
    }

    /// Assigns the next run to a tape (the one with the largest deficit
    /// against the ideal level, the highest index on ties: `max_by_key`
    /// keeps the last maximum) and returns its index.
    pub fn next_tape(&mut self) -> usize {
        if self.deficit_total() == 0 {
            self.level_up();
        }
        let j = (0..self.ideal.len())
            .max_by_key(|&j| self.ideal[j] - self.actual[j])
            .expect("non-empty tape set");
        debug_assert!(self.ideal[j] > self.actual[j]);
        self.actual[j] += 1;
        j
    }

    /// Runs still missing to complete the current level.
    fn deficit_total(&self) -> u64 {
        self.ideal
            .iter()
            .zip(&self.actual)
            .map(|(i, a)| i - a)
            .sum()
    }

    /// Dummy runs per tape needed to pad the layout to the current level.
    pub fn dummies(&self) -> Vec<u64> {
        self.ideal
            .iter()
            .zip(&self.actual)
            .map(|(i, a)| i - a)
            .collect()
    }

    /// The ideal distribution currently targeted.
    pub fn ideal(&self) -> &[u64] {
        &self.ideal
    }

    /// The current level number.
    pub fn level(&self) -> u32 {
        self.level
    }
}

/// Reads `input` once and distributes sorted runs over `k` fresh tape files
/// named `"{job}.tape{j}"`.
pub fn form_runs<R: Record>(
    disk: &Disk,
    input: &str,
    job: &str,
    k: usize,
    cfg: &ExtSortConfig,
) -> PdmResult<FormedRuns> {
    let _span = obs::scoped("extsort.run-formation");
    let names: Vec<String> = (0..k).map(|j| format!("{job}.tape{j}")).collect();
    let mut dist = Distributor::new(k)?;

    if cfg.pipeline.enabled && cfg.run_formation == RunFormation::ChunkSort {
        return form_runs_pipelined::<R>(disk, input, names, cfg, dist);
    }

    let mut reader = disk.open_reader::<R>(input)?;
    let mut writers = names
        .iter()
        .map(|n| disk.create_writer::<R>(n))
        .collect::<PdmResult<Vec<_>>>()?;
    let mut runs: Vec<VecDeque<u64>> = vec![VecDeque::new(); k];
    let mut total_runs = 0u64;
    let mut records = 0u64;
    let mut work = KernelWork::default();

    match cfg.run_formation {
        RunFormation::ChunkSort => {
            let mut chunk: Vec<R> = Vec::with_capacity(cfg.mem_records);
            loop {
                chunk.clear();
                reader.read_into(&mut chunk, cfg.mem_records)?;
                if chunk.is_empty() {
                    break;
                }
                work = work.plus(sort_chunk(&mut chunk, cfg.kernel));
                let t = dist.next_tape();
                writers[t].push_all(&chunk)?;
                runs[t].push_back(chunk.len() as u64);
                obs::hist_record("extsort.run_records", chunk.len() as u64);
                total_runs += 1;
                records += chunk.len() as u64;
            }
        }
        RunFormation::ReplacementSelection => {
            let (r, c, t) =
                replacement_selection(&mut reader, &mut writers, &mut runs, &mut dist, cfg)?;
            records = r;
            work.comparisons = c;
            total_runs = t;
        }
    }

    for w in writers {
        w.finish()?;
    }
    Ok(assemble(names, runs, &dist, total_runs, records, work))
}

/// Packs per-tape results into a [`FormedRuns`].
fn assemble(
    names: Vec<String>,
    runs: Vec<VecDeque<u64>>,
    dist: &Distributor,
    total_runs: u64,
    records: u64,
    work: KernelWork,
) -> FormedRuns {
    let dummies = dist.dummies();
    let tapes = names
        .into_iter()
        .zip(runs)
        .zip(dummies)
        .map(|((name, runs), dummies)| TapeRuns {
            name,
            runs,
            dummies,
        })
        .collect();
    FormedRuns {
        tapes,
        total_runs,
        records,
        comparisons: work.comparisons,
        key_ops: work.key_ops,
    }
}

/// Chunk-sort run formation as a read → sort → write pipeline.
///
/// The calling thread reads the input and writes the tapes through its
/// block reader and writers while a pool of `workers` threads sorts chunks
/// concurrently. Sorted chunks pass through a reorder buffer and reach the
/// distributor strictly in input order, which keeps the tape assignment,
/// the file contents and the metered I/O identical to the sequential path.
/// At most `2 × workers + 1` chunks are in flight at once (queued, being
/// sorted or waiting in the reorder buffer): past that the calling thread
/// waits for a sorted chunk instead of reading the next one.
fn form_runs_pipelined<R: Record>(
    disk: &Disk,
    input: &str,
    names: Vec<String>,
    cfg: &ExtSortConfig,
    mut dist: Distributor,
) -> PdmResult<FormedRuns> {
    let workers = cfg.pipeline.effective_workers();
    let mut reader = disk.open_reader::<R>(input)?;
    let mut writers = names
        .iter()
        .map(|n| disk.create_writer::<R>(n))
        .collect::<PdmResult<Vec<BlockWriter<R>>>>()?;
    let k = names.len();
    let mut runs: Vec<VecDeque<u64>> = vec![VecDeque::new(); k];
    let mut total_runs = 0u64;
    let mut records = 0u64;
    let mut work = KernelWork::default();
    let kernel = cfg.kernel;

    // Unsorted chunks flow to the workers through a bounded queue (so at
    // most `workers + 1` chunks queue up beyond the ones being sorted);
    // sorted chunks come back tagged with their sequence number and the
    // kernel work they cost (deterministic in the chunk contents, so the
    // totals match the sequential path exactly).
    let (work_tx, work_rx) = sync_channel::<(u64, Vec<R>)>(workers + 1);
    let work_rx = Arc::new(Mutex::new(work_rx));
    // Each sorted chunk optionally carries `(worker, start, end)` wall
    // offsets (seconds since `epoch`) so the node thread can record a span
    // per worker sort — the tracing handle itself is `!Send`. A sort that
    // panicked comes back as its panic, which the calling thread resumes
    // when the chunk's turn comes instead of waiting for it forever.
    type SortStat = Option<(usize, f64, f64)>;
    type Sorted = std::thread::Result<KernelWork>;
    let (done_tx, done_rx) = channel::<(u64, Vec<R>, Sorted, SortStat)>();
    let node_obs = obs::current();
    let traced = node_obs.is_enabled();
    let wall_base = node_obs.elapsed();
    let epoch = Instant::now();

    std::thread::scope(|scope| -> PdmResult<()> {
        for w in 0..workers {
            let work_rx = Arc::clone(&work_rx);
            let done_tx = done_tx.clone();
            std::thread::Builder::new()
                .name(format!("chunk-sort-{w}"))
                .spawn_scoped(scope, move || {
                    loop {
                        // Hold the receiver lock only while dequeueing.
                        let job = work_rx.lock().unwrap().recv();
                        match job {
                            Ok((seq, mut chunk)) => {
                                let t0 = traced.then(|| epoch.elapsed().as_secs_f64());
                                let kw = catch_unwind(AssertUnwindSafe(|| {
                                    sort_chunk(&mut chunk, kernel)
                                }));
                                let stat = t0.map(|s| (w, s, epoch.elapsed().as_secs_f64()));
                                if done_tx.send((seq, chunk, kw, stat)).is_err() {
                                    return; // consumer bailed on an I/O error
                                }
                            }
                            Err(_) => return, // input exhausted
                        }
                    }
                })
                .expect("spawn chunk-sort worker");
        }
        drop(done_tx);

        // Reorder buffer: sorted chunks arrive in any order, leave in input
        // order. It holds the chunks sorted after one that a worker is
        // still sorting, within the in-flight budget.
        let max_in_flight = 2 * workers as u64 + 1;
        let mut ready: BTreeMap<u64, (Vec<R>, Sorted, SortStat)> = BTreeMap::new();
        let mut next_out = 0u64;
        let mut spare: Vec<Vec<R>> = Vec::new();
        let mut emit = |(chunk, kw, stat): (Vec<R>, Sorted, SortStat),
                        writers: &mut [BlockWriter<R>],
                        spare: &mut Vec<Vec<R>>|
         -> PdmResult<()> {
            let kw = kw.unwrap_or_else(|panic| resume_unwind(panic));
            if let Some((wkr, s0, s1)) = stat {
                node_obs.record_span(
                    worker_span_name(wkr),
                    obs::SpanKind::Task,
                    wall_base + s0,
                    wall_base + s1,
                    None,
                );
                node_obs.hist_record("extsort.pipeline.sort_us", ((s1 - s0) * 1e6) as u64);
            }
            work = work.plus(kw);
            let t = dist.next_tape();
            writers[t].push_all(&chunk)?;
            runs[t].push_back(chunk.len() as u64);
            obs::hist_record("extsort.run_records", chunk.len() as u64);
            total_runs += 1;
            records += chunk.len() as u64;
            let mut chunk = chunk;
            chunk.clear();
            spare.push(chunk);
            Ok(())
        };

        let mut seq = 0u64;
        loop {
            // Write out the chunks sorted so far, in order; with the
            // in-flight budget spent, wait for one before reading on.
            loop {
                let done = if seq - next_out >= max_in_flight {
                    done_rx.recv().ok()
                } else {
                    done_rx.try_recv().ok()
                };
                let Some((s, sorted, kw, stat)) = done else {
                    break;
                };
                ready.insert(s, (sorted, kw, stat));
                while let Some(sorted) = ready.remove(&next_out) {
                    emit(sorted, &mut writers, &mut spare)?;
                    next_out += 1;
                }
            }
            let mut chunk = spare.pop().unwrap_or_default();
            chunk.reserve(cfg.mem_records);
            reader.read_into(&mut chunk, cfg.mem_records)?;
            if chunk.is_empty() {
                break;
            }
            work_tx
                .send((seq, chunk))
                .expect("sort workers exited early");
            seq += 1;
        }
        drop(work_tx); // input done: workers drain the queue and exit

        for (s, sorted, kw, stat) in done_rx.iter() {
            ready.insert(s, (sorted, kw, stat));
            while let Some(sorted) = ready.remove(&next_out) {
                emit(sorted, &mut writers, &mut spare)?;
                next_out += 1;
            }
        }
        debug_assert_eq!(next_out, seq, "all chunks must come back sorted");
        Ok(())
    })?;

    for w in writers {
        w.finish()?;
    }
    Ok(assemble(names, runs, &dist, total_runs, records, work))
}

/// Replacement selection: a min-heap of `(generation, record)` produces
/// maximal runs; records smaller than the last one emitted are deferred to
/// the next generation.
fn replacement_selection<R: Record>(
    reader: &mut BlockReader<R>,
    writers: &mut [BlockWriter<R>],
    runs: &mut [VecDeque<u64>],
    dist: &mut Distributor,
    cfg: &ExtSortConfig,
) -> PdmResult<(u64, u64, u64)> {
    use std::cmp::Reverse;

    let mut heap: BinaryHeap<Reverse<(u64, R)>> = BinaryHeap::with_capacity(cfg.mem_records);
    let mut records = 0u64;
    for _ in 0..cfg.mem_records {
        match reader.next_record()? {
            Some(x) => {
                heap.push(Reverse((0, x)));
                records += 1;
            }
            None => break,
        }
    }
    let mut total_runs = 0u64;
    let mut comparisons = 0u64;
    let mut gen = 0u64;
    while let Some(&Reverse((g, _))) = heap.peek() {
        // Start a run for generation `g`.
        debug_assert!(g >= gen);
        gen = g;
        let tape = dist.next_tape();
        total_runs += 1;
        let mut run_len = 0u64;
        while let Some(&Reverse((g2, x))) = heap.peek() {
            if g2 != gen {
                break;
            }
            heap.pop();
            writers[tape].push(x)?;
            run_len += 1;
            // Each heap pop/push costs ~log2(M) comparisons.
            comparisons += heap_log2(cfg.mem_records);
            if let Some(nxt) = reader.next_record()? {
                records += 1;
                // A record smaller than the one just emitted cannot extend
                // the current run; defer it to the next generation.
                let g_next = if nxt >= x { gen } else { gen + 1 };
                heap.push(Reverse((g_next, nxt)));
                comparisons += heap_log2(cfg.mem_records);
            }
        }
        runs[tape].push_back(run_len);
        obs::hist_record("extsort.run_records", run_len);
    }
    Ok((records, comparisons, total_runs))
}

fn heap_log2(m: usize) -> u64 {
    (usize::BITS - m.max(2).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use pdm::Disk;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn cfg(mem: usize) -> ExtSortConfig {
        ExtSortConfig::new(mem).with_tapes(4)
    }

    #[test]
    fn distributor_fibonacci_levels_k2() {
        let mut d = Distributor::new(2).unwrap();
        assert_eq!(d.ideal(), &[1, 0]);
        d.next_tape(); // consumes level 0
        d.next_tape(); // forces level 1: (1,1) → one deficit left
        assert_eq!(d.ideal(), &[1, 1]);
        d.next_tape(); // level 2: (2,1)
        assert_eq!(d.ideal(), &[2, 1]);
        // Fibonacci totals: 1, 2, 3, 5, 8…
        for _ in 0..2 {
            d.next_tape();
        }
        assert_eq!(d.ideal().iter().sum::<u64>(), 5);
        assert_eq!(d.ideal(), &[3, 2]);
    }

    #[test]
    fn distributor_k3_levels() {
        let mut d = Distributor::new(3).unwrap();
        // Levels for order-3: (1,0,0)=1, (1,1,1)=3, (2,2,1)? — recurrence:
        // d1 = (1+0, 1+0, 1) = (1,1,1); d2 = (1+1, 1+1, 1) = (2,2,1).
        d.next_tape();
        d.next_tape();
        assert_eq!(d.ideal(), &[1, 1, 1]);
        for _ in 0..3 {
            d.next_tape();
        }
        assert_eq!(d.ideal(), &[2, 2, 1]);
    }

    #[test]
    fn distributor_breaks_ties_toward_the_highest_tape() {
        // Levels (1,0,0), (1,1,1), (2,2,1), (4,3,2): on equal deficits the
        // run goes to the highest tape.
        let mut d = Distributor::new(3).unwrap();
        let tapes: Vec<usize> = (0..6).map(|_| d.next_tape()).collect();
        assert_eq!(tapes, [0, 2, 1, 1, 0, 0]);
    }

    #[test]
    fn distributor_dummies_complete_level() {
        let mut d = Distributor::new(3).unwrap();
        for _ in 0..4 {
            d.next_tape();
        }
        // 4 runs placed; level (2,2,1) totals 5 → one dummy somewhere.
        assert_eq!(d.dummies().iter().sum::<u64>(), 1);
    }

    #[test]
    fn chunk_sort_forms_sorted_runs() {
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = vec![9, 3, 7, 1, 8, 2, 6, 4, 5, 0];
        disk.write_file("in", &data).unwrap();
        let formed = form_runs::<u32>(&disk, "in", "job", 3, &cfg(4)).unwrap();
        assert_eq!(formed.records, 10);
        assert_eq!(formed.total_runs, 3); // 4+4+2
                                          // Each tape's runs are individually sorted.
        for tape in &formed.tapes {
            let content = disk.read_file::<u32>(&tape.name).unwrap();
            let mut off = 0usize;
            for &len in &tape.runs {
                let run = &content[off..off + len as usize];
                assert!(run.windows(2).all(|w| w[0] <= w[1]), "unsorted run");
                off += len as usize;
            }
            assert_eq!(off, content.len());
        }
        // Ideal layout: real + dummies equals an ideal level.
        let real: u64 = formed.tapes.iter().map(|t| t.runs.len() as u64).sum();
        let dum: u64 = formed.tapes.iter().map(|t| t.dummies).sum();
        assert_eq!(real, 3);
        assert_eq!(real + dum, 3); // level (1,1,1) fits exactly
    }

    #[test]
    fn empty_input_forms_no_runs() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("in", &[]).unwrap();
        let formed = form_runs::<u32>(&disk, "in", "j", 3, &cfg(4)).unwrap();
        assert_eq!(formed.total_runs, 0);
        assert_eq!(formed.records, 0);
    }

    #[test]
    fn replacement_selection_runs_are_longer() {
        let disk = Disk::in_memory(64);
        let mut rng = sim::Pcg64::new(42);
        use sim::rng::Rng;
        let data: Vec<u32> = (0..1000).map(|_| rng.next_u32()).collect();
        disk.write_file("in", &data).unwrap();

        let c_chunk = cfg(50);
        let chunk = form_runs::<u32>(&disk, "in", "a", 3, &c_chunk).unwrap();
        let c_rs = cfg(50).with_run_formation(RunFormation::ReplacementSelection);
        let rs = form_runs::<u32>(&disk, "in", "b", 3, &c_rs).unwrap();
        assert_eq!(rs.records, 1000);
        assert!(
            rs.total_runs < chunk.total_runs,
            "replacement selection ({}) should beat chunking ({})",
            rs.total_runs,
            chunk.total_runs
        );
    }

    #[test]
    fn replacement_selection_sorted_input_single_run() {
        let disk = Disk::in_memory(64);
        let data: Vec<u32> = (0..500).collect();
        disk.write_file("in", &data).unwrap();
        let c = cfg(32).with_run_formation(RunFormation::ReplacementSelection);
        let formed = form_runs::<u32>(&disk, "in", "j", 3, &c).unwrap();
        assert_eq!(formed.total_runs, 1, "sorted input → one maximal run");
        let tape = formed.tapes.iter().find(|t| !t.runs.is_empty()).unwrap();
        assert_eq!(disk.read_file::<u32>(&tape.name).unwrap(), data);
    }

    #[test]
    fn replacement_selection_preserves_multiset() {
        let disk = Disk::in_memory(32);
        let data: Vec<u32> = vec![5, 5, 1, 9, 1, 3, 3, 3, 0, 7, 2, 8];
        disk.write_file("in", &data).unwrap();
        let c = cfg(4).with_run_formation(RunFormation::ReplacementSelection);
        let formed = form_runs::<u32>(&disk, "in", "j", 3, &c).unwrap();
        let mut all: Vec<u32> = Vec::new();
        for t in &formed.tapes {
            all.extend(disk.read_file::<u32>(&t.name).unwrap());
        }
        let mut expect = data.clone();
        expect.sort_unstable();
        all.sort_unstable();
        assert_eq!(all, expect);
        assert_eq!(formed.records, 12);
    }

    const STALL: u8 = 0;
    const PANIC: u8 = 1;

    /// Records decoded by the stalling record type.
    static DECODED: AtomicU64 = AtomicU64::new(0);
    /// [`DECODED`] when the stalled comparison let go.
    static DECODED_AT_STALL: AtomicU64 = AtomicU64::new(0);
    static STALLED: AtomicBool = AtomicBool::new(false);

    /// A `u32` record whose comparisons with `Marked(0)` misbehave: under
    /// `STALL` the first one holds its sort worker for a while (and notes
    /// how many records had been decoded by then); under `PANIC` each one
    /// panics.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Marked<const MODE: u8>(u32);

    impl<const MODE: u8> Ord for Marked<MODE> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            if self.0 == 0 || other.0 == 0 {
                if MODE == PANIC {
                    panic!("marked record compared");
                }
                if !STALLED.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(300));
                    DECODED_AT_STALL.store(DECODED.load(Ordering::SeqCst), Ordering::SeqCst);
                }
            }
            self.0.cmp(&other.0)
        }
    }

    impl<const MODE: u8> PartialOrd for Marked<MODE> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<const MODE: u8> Record for Marked<MODE> {
        const SIZE: usize = 4;

        fn write_to(&self, buf: &mut [u8]) {
            buf.copy_from_slice(&self.0.to_le_bytes());
        }

        fn read_from(buf: &[u8]) -> Self {
            if MODE == STALL {
                DECODED.fetch_add(1, Ordering::SeqCst);
            }
            Marked(u32::from_le_bytes(buf.try_into().unwrap()))
        }
    }

    /// 40 chunks of 8 records; the marked record sits in the first chunk.
    fn marked_input<const MODE: u8>(disk: &Disk) -> ExtSortConfig {
        let data: Vec<Marked<MODE>> = (0..320u32).map(|i| Marked(i ^ 5)).collect();
        disk.write_file("in", &data).unwrap();
        cfg(8).with_pipeline(PipelineConfig::with_workers(2))
    }

    /// While one worker sits on the first chunk, the other keeps sorting,
    /// but the calling thread reads at most `2 × workers + 1` chunks
    /// ahead of it instead of the whole input.
    #[test]
    fn pipelined_reads_stop_at_the_in_flight_budget() {
        let disk = Disk::in_memory(16);
        let c = marked_input::<STALL>(&disk);
        DECODED.store(0, Ordering::SeqCst);
        let formed = form_runs::<Marked<STALL>>(&disk, "in", "j", 3, &c).unwrap();
        assert_eq!(formed.records, 320);
        assert_eq!(formed.total_runs, 40);
        assert!(STALLED.load(Ordering::SeqCst));
        let read_ahead = DECODED_AT_STALL.load(Ordering::SeqCst);
        assert!(
            read_ahead <= 5 * 8,
            "read {read_ahead} records past a stalled chunk"
        );
    }

    /// A chunk sort that panics stops run formation with that panic; the
    /// calling thread does not wait for the chunk forever.
    #[test]
    fn a_panicking_chunk_sort_is_resumed_not_awaited() {
        let disk = Disk::in_memory(16);
        let c = marked_input::<PANIC>(&disk);
        let outcome =
            std::panic::catch_unwind(|| form_runs::<Marked<PANIC>>(&disk, "in", "j", 3, &c));
        let panic = outcome.expect_err("the sort's panic reaches the caller");
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"marked record compared")
        );
    }

    #[test]
    fn distributor_needs_two_tapes() {
        let err = Distributor::new(1).unwrap_err();
        assert!(err.to_string().contains("at least 2 input tapes"), "{err}");
    }
}
