//! Merge windows: one k-way merge on several threads, in memory.
//!
//! The polyphase steps and `kway::merge_segments` (the balanced passes and
//! step 5) merge through [`merge`]. With the pipeline on, two or more
//! workers and a key that is a total order ([`pdm::Record::KEY_IS_TOTAL`]),
//! it runs [`merge_windows`]; every other merge — the sequential oracle
//! and the cluster workloads among them — drains one [`LoserTree`] as
//! before.
//!
//! * **Lanes.** Each source keeps a lane of at least `LOOKAHEAD_BYTES`
//!   and `WINDOW_BYTES / k` of buffered records, topped up through
//!   [`RecordStream::next_batch`] (so the same blocks are read, in the same
//!   order). A short refill marks the source done.
//! * **Window.** The pivot is the smallest `(last buffered key, source)`
//!   over the sources that are not done. The window is every buffered
//!   record at or before the pivot in `(key, source)` order, which is the
//!   tree's order. Every unread record sorts after the pivot, so the window
//!   is the next stretch of the merged output.
//! * **Split.** The window is cut into one slice per thread at exact
//!   ranks: a binary search finds the key of the cut's record, and the
//!   records with that key are taken in source order, as the tree breaks
//!   ties. The calling thread's slice is two thirds the size of each
//!   helper's (`OWN_SHARE`), as it has the refills and the sink to serve
//!   too. A window of fewer than `MIN_PART` records a thread is cut into
//!   fewer slices, down to one.
//! * **Threads.** The calling thread merges slice 0 straight into the sink.
//!   Helpers, spawned once per merge at its first split window, merge the
//!   other slices, each with an ordinary [`LoserTree`] into an output
//!   `Vec` of its own (pushing through adjacent `Vec` headers would
//!   false-share). They read the lanes through an `Arc`, which the calling
//!   thread reclaims with `Arc::get_mut` before it refills, and the
//!   outputs travel by channel. A window's helper slices go to the sink
//!   after the next window is dispatched, so that copy overlaps the
//!   helpers' next merge, and always before the next window's slice 0.
//! * **Billing.** Selects are billed by the tree's formula,
//!   `(k − 1) + Σ_s n_s · ⌊log₂(s + k)⌋` for `n_s` records of source `s`,
//!   so no count depends on how the windows were cut. Equal keys are equal
//!   records, so the output bytes are the tree's too.
//!
//! Windows that split are counted on the calling thread's obs handle
//! (`merge.window.split`).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;

use pdm::{PdmResult, Record};

use crate::config::PipelineConfig;
use crate::loser_tree::{LoserTree, LOOKAHEAD_BYTES};
use crate::stream::RecordStream;

/// Bytes of records the lanes of one merge buffer together.
const WINDOW_BYTES: usize = 2 << 20;

/// Fewest records in a slice: a window of fewer than `2 · MIN_PART`
/// records is merged on the calling thread alone.
const MIN_PART: usize = 16 << 10;

/// The calling thread's slice to each helper's, in rank share: besides its
/// own slice it refills the lanes and copies the helpers' slices to the
/// sink. On 2 cores, 2:3 (a 40% slice at two threads) merged a 7-way
/// polyphase phase about 5% faster than equal slices or 1:2.
const OWN_SHARE: usize = 2;
const HELPER_SHARE: usize = 3;

/// Merges `sources` into `sink` and returns `(records, selects)`: by
/// [`merge_windows`] on `pipeline.effective_workers()` threads when the
/// pipeline is on with two or more workers, the key is a total order and
/// there are at least two sources; otherwise by one [`LoserTree`].
pub(crate) fn merge<R: Record, S: RecordStream<R>>(
    sources: Vec<S>,
    pipeline: &PipelineConfig,
    sink: impl FnMut(&[R]) -> PdmResult<()>,
) -> PdmResult<(u64, u64)> {
    let threads = pipeline.effective_workers();
    if pipeline.enabled && threads >= 2 && R::HAS_SORT_KEY && R::KEY_IS_TOTAL && sources.len() >= 2
    {
        merge_windows(sources, threads, sink)
    } else {
        let mut tree = LoserTree::new(sources)?;
        let records = tree.drain_to(sink)?;
        Ok((records, tree.comparisons()))
    }
}

/// A helper's work: its slice `ranges[s]` of every lane, and a spare
/// output `Vec` to merge it into.
struct Job<R> {
    lanes: Arc<Vec<Vec<R>>>,
    ranges: Vec<(usize, usize)>,
    out: Vec<R>,
}

/// The calling thread's ends of one helper's channels.
struct Helper<R> {
    jobs: Sender<Job<R>>,
    merged: Receiver<PdmResult<Vec<R>>>,
}

/// Merges `sources` (at least two, with a total-order key) into `sink` on
/// `threads` threads, window by window (see the module doc); returns
/// `(records, selects)`, equal to one [`LoserTree`]'s `produced` and
/// `comparisons` over the same sources. On an error the helpers are joined
/// and the sink is not called again.
fn merge_windows<R: Record, S: RecordStream<R>>(
    sources: Vec<S>,
    threads: usize,
    sink: impl FnMut(&[R]) -> PdmResult<()>,
) -> PdmResult<(u64, u64)> {
    let lane = LOOKAHEAD_BYTES.max(WINDOW_BYTES / sources.len()) / R::SIZE;
    windows(sources, threads, lane.max(1), MIN_PART, sink)
}

/// [`merge_windows`] with lanes of `cap` records and slices of at least
/// `min_part` records.
fn windows<R: Record, S: RecordStream<R>>(
    mut sources: Vec<S>,
    threads: usize,
    cap: usize,
    min_part: usize,
    mut sink: impl FnMut(&[R]) -> PdmResult<()>,
) -> PdmResult<(u64, u64)> {
    let k = sources.len();
    debug_assert!(k >= 2 && R::HAS_SORT_KEY && R::KEY_IS_TOTAL);
    let mut lanes: Arc<Vec<Vec<R>>> = Arc::new((0..k).map(|_| Vec::with_capacity(cap)).collect());
    let mut done = vec![false; k];
    let mut records = 0u64;
    let mut selects = k as u64 - 1;
    std::thread::scope(|scope| -> PdmResult<()> {
        let mut helpers: Vec<Helper<R>> = Vec::new();
        // The last split window's helper slices, not yet in the sink.
        let mut pending: Vec<Vec<R>> = Vec::new();
        let mut spare: Vec<Vec<R>> = Vec::new();
        loop {
            let bufs = Arc::get_mut(&mut lanes).expect("helpers release the lanes");
            for ((buf, source), done) in bufs.iter_mut().zip(&mut sources).zip(&mut done) {
                let want = cap - buf.len();
                if !*done && want > 0 {
                    *done = source.next_batch(buf, want)? < want;
                }
            }
            let counts = window_counts(bufs, &done);
            let total: usize = counts.iter().sum();
            if total == 0 {
                break;
            }
            records += total as u64;
            selects += counts
                .iter()
                .enumerate()
                .map(|(s, &n)| n as u64 * u64::from((s + k).ilog2()))
                .sum::<u64>();

            let parts = (total / min_part).clamp(1, threads);
            let window: Vec<&[R]> = bufs.iter().zip(&counts).map(|(b, &n)| &b[..n]).collect();
            let mut cuts = vec![vec![0; k]];
            let weight = OWN_SHARE + HELPER_SHARE * (parts - 1);
            cuts.extend((1..parts).map(|t| {
                rank_cut(
                    &window,
                    total * (OWN_SHARE + HELPER_SHARE * (t - 1)) / weight,
                )
            }));
            cuts.push(counts.clone());
            let ranges = |t: usize| -> Vec<(usize, usize)> {
                cuts[t]
                    .iter()
                    .zip(&cuts[t + 1])
                    .map(|(&a, &b)| (a, b))
                    .collect()
            };
            if parts > 1 {
                obs::counter_add("merge.window.split", 1);
                while helpers.len() < parts - 1 {
                    helpers.push(spawn_helper(scope));
                }
                for (t, helper) in (1..parts).zip(&helpers) {
                    let job = Job {
                        lanes: Arc::clone(&lanes),
                        ranges: ranges(t),
                        out: spare.pop().unwrap_or_default(),
                    };
                    helper.jobs.send(job).expect("a merge helper hung up");
                }
            }
            flush(&mut sink, &mut pending, &mut spare)?;
            let own = slices(&lanes, &ranges(0));
            match own.len() {
                0 => {}
                1 => sink(own[0])?,
                _ => {
                    LoserTree::new(own)?.drain_to(&mut sink)?;
                }
            }
            for helper in &helpers[..parts - 1] {
                pending.push(helper.merged.recv().expect("a merge helper died")?);
            }
            let bufs = Arc::get_mut(&mut lanes).expect("helpers release the lanes");
            for (buf, n) in bufs.iter_mut().zip(counts) {
                buf.drain(..n);
            }
        }
        flush(&mut sink, &mut pending, &mut spare)
    })?;
    Ok((records, selects))
}

/// Hands the `pending` helper slices to the sink in order and keeps their
/// `Vec`s as `spare` output buffers.
fn flush<R: Record>(
    sink: &mut impl FnMut(&[R]) -> PdmResult<()>,
    pending: &mut Vec<Vec<R>>,
    spare: &mut Vec<Vec<R>>,
) -> PdmResult<()> {
    for out in pending.drain(..) {
        sink(&out)?;
        spare.push(out);
    }
    Ok(())
}

/// Starts a helper that merges the slices it is sent until the calling
/// thread hangs up. It drops its hold on the lanes before it answers.
fn spawn_helper<'scope, R: Record>(scope: &'scope Scope<'scope, '_>) -> Helper<R> {
    let (jobs, inbox) = channel::<Job<R>>();
    let (outbox, merged) = channel();
    scope.spawn(move || {
        for Job {
            lanes,
            ranges,
            mut out,
        } in inbox
        {
            out.clear();
            let parts = slices(&lanes, &ranges);
            let result = match parts.len() {
                0 => Ok(()),
                1 => {
                    out.extend_from_slice(parts[0]);
                    Ok(())
                }
                _ => LoserTree::new(parts).and_then(|mut tree| tree.drain_into(&mut out).map(drop)),
            };
            drop(lanes);
            if outbox.send(result.map(|_| out)).is_err() {
                break;
            }
        }
    });
    Helper { jobs, merged }
}

/// The non-empty slices `lanes[s][ranges[s]]`, in source order: dropping
/// the empty ones keeps the tree's tie order among the rest.
fn slices<'a, R>(lanes: &'a [Vec<R>], ranges: &[(usize, usize)]) -> Vec<&'a [R]> {
    lanes
        .iter()
        .zip(ranges)
        .map(|(lane, &(a, b))| &lane[a..b])
        .filter(|s| !s.is_empty())
        .collect()
}

/// How many leading records of each lane the window takes: those at or
/// before the pivot, the smallest `(last key, source)` over the lanes whose
/// source is not `done` (all of them once every source is done). A lane
/// that is not done is never empty.
fn window_counts<R: Record>(lanes: &[Vec<R>], done: &[bool]) -> Vec<usize> {
    let pivot = (0..lanes.len())
        .filter(|&s| !done[s])
        .map(|s| (lanes[s].last().expect("a live lane is full").sort_key(), s))
        .min();
    lanes
        .iter()
        .enumerate()
        .map(|(s, lane)| match pivot {
            Some(pivot) => lane.partition_point(|r| (r.sort_key(), s) <= pivot),
            None => lane.len(),
        })
        .collect()
}

/// How many records of each sorted part are among the `rank` first of
/// their union in `(key, part)` order (`0 < rank ≤` the union's size).
fn rank_cut<R: Record>(parts: &[&[R]], rank: usize) -> Vec<usize> {
    let below = |v: u64| {
        parts
            .iter()
            .map(move |p| p.partition_point(|r| r.sort_key() < v))
    };
    let at_most = |v: u64| {
        parts
            .iter()
            .map(move |p| p.partition_point(|r| r.sort_key() <= v))
    };
    // The cut record's key: the smallest `v` with `rank` records at or below it.
    let (mut lo, mut hi) = (0u64, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at_most(mid).sum::<usize>() >= rank {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // Everything below that key, then its equals in part order.
    let mut left = rank - below(lo).sum::<usize>();
    below(lo)
        .zip(at_most(lo))
        .map(|(a, b)| {
            let take = left.min(b - a);
            left -= take;
            a + take
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SliceStream;
    use pdm::PdmError;
    use sim::rng::{Pcg64, Rng};
    use std::cell::Cell;
    use std::rc::Rc;

    /// The tree's output, `produced` and `comparisons` over `inputs`.
    fn tree_merge(inputs: &[Vec<u32>]) -> (Vec<u32>, u64, u64) {
        let sources = inputs.iter().cloned().map(SliceStream::new).collect();
        let mut tree = LoserTree::new(sources).unwrap();
        let mut out = Vec::new();
        tree.drain_into(&mut out).unwrap();
        (out, tree.produced(), tree.comparisons())
    }

    /// Lanes and slices small enough that a merge of a few thousand
    /// records per source takes many windows and splits them.
    const SMALL: Option<(usize, usize)> = Some((1000, 256));

    /// The windowed merge's output, records, selects and split windows,
    /// with the production lanes and slices or `small` ones.
    fn window_merge(
        inputs: &[Vec<u32>],
        threads: usize,
        small: Option<(usize, usize)>,
    ) -> (Vec<u32>, u64, u64, u64) {
        let tracer = obs::Obs::enabled();
        let guard = obs::install(tracer.clone());
        let sources = inputs.iter().cloned().map(SliceStream::new).collect();
        let mut out = Vec::new();
        let sink = |b: &[u32]| {
            out.extend_from_slice(b);
            Ok(())
        };
        let (records, selects) = match small {
            Some((lane, min_part)) => windows(sources, threads, lane, min_part, sink),
            None => merge_windows(sources, threads, sink),
        }
        .unwrap();
        drop(guard);
        let node = tracer.finish(0, "merge".to_string());
        let splits = node.metrics.counters.get("merge.window.split").copied();
        (out, records, selects, splits.unwrap_or(0))
    }

    /// `k` sorted runs of `len(s)` records each, keys drawn by `key`.
    fn runs(k: usize, len: impl Fn(usize) -> usize, mut key: impl FnMut() -> u32) -> Vec<Vec<u32>> {
        (0..k)
            .map(|s| {
                let mut run: Vec<u32> = (0..len(s)).map(|_| key()).collect();
                run.sort_unstable();
                run
            })
            .collect()
    }

    /// Asserts the windowed merge matches the tree on 2 and 3 threads;
    /// returns the 2-thread run's split-window count.
    fn check(inputs: &[Vec<u32>], small: Option<(usize, usize)>, what: &str) -> u64 {
        let (expect, produced, comparisons) = tree_merge(inputs);
        let mut splits = 0;
        for threads in [2, 3] {
            let (out, records, selects, split) = window_merge(inputs, threads, small);
            assert!(out == expect, "{what}, {threads} threads: output differs");
            assert_eq!(records, produced, "{what}, {threads} threads");
            assert_eq!(selects, comparisons, "{what}, {threads} threads");
            if threads == 2 {
                splits = split;
            }
        }
        splits
    }

    #[test]
    fn matches_the_tree_across_fan_ins_and_key_shapes() {
        let mut rng = Pcg64::new(5);
        // Sources of 3 to 30 lanes.
        let n = 3000;
        for k in [2usize, 3, 7, 16, 64] {
            let shapes: [(&str, Vec<Vec<u32>>); 6] = [
                ("uniform", runs(k, |_| n, || rng.next_u32())),
                ("all-equal", runs(k, |_| n, || 7)),
                ("few distinct", runs(k, |_| n, || rng.next_u32() % 5)),
                (
                    "u32::MAX keys",
                    runs(k, |_| n, || u32::MAX - rng.next_u32() % 2),
                ),
                (
                    "one long source",
                    runs(
                        k,
                        |s| if s == k / 2 { 10 * n } else { n },
                        || rng.next_u32(),
                    ),
                ),
                (
                    "empty sources",
                    runs(k, |s| if s % 2 == 0 { 0 } else { n }, || rng.next_u32()),
                ),
            ];
            for (shape, inputs) in shapes {
                let splits = check(&inputs, SMALL, &format!("k={k} {shape}"));
                assert!(splits > 0, "k={k} {shape}: no window split");
            }
        }
    }

    #[test]
    fn matches_the_tree_with_production_lanes() {
        // Two lanes' worth of records per source at k = 7.
        let mut rng = Pcg64::new(7);
        let k = 7;
        let lane = WINDOW_BYTES / k / 4;
        let inputs = runs(k, |_| 2 * lane, || rng.next_u32());
        assert!(check(&inputs, None, "k=7") > 1);
    }

    #[test]
    fn splits_windows_from_twice_min_part() {
        let mut rng = Pcg64::new(9);
        for (total, splits) in [(2 * MIN_PART - 1, 0), (2 * MIN_PART, 1)] {
            // Short sources: every one is done after its first refill, so
            // the merge is a single window of `total` records.
            let inputs = runs(
                3,
                |s| total / 3 + usize::from(s < total % 3),
                || rng.next_u32(),
            );
            assert_eq!(inputs.iter().map(Vec::len).sum::<usize>(), total);
            assert_eq!(check(&inputs, None, &format!("{total} records")), splits);
        }
    }

    #[test]
    fn rank_cuts_break_ties_by_source() {
        let parts: [&[u32]; 3] = [&[1, 5, 5], &[5, 5, 9], &[0, 5]];
        assert_eq!(rank_cut(&parts, 1), vec![0, 0, 1]);
        assert_eq!(rank_cut(&parts, 2), vec![1, 0, 1]);
        assert_eq!(rank_cut(&parts, 4), vec![3, 0, 1]);
        assert_eq!(rank_cut(&parts, 6), vec![3, 2, 1]);
        assert_eq!(rank_cut(&parts, 7), vec![3, 2, 2]);
        assert_eq!(rank_cut(&parts, 8), vec![3, 3, 2]);
    }

    /// Yields `data`, but fails once `fail_at` records have been read.
    struct Failing {
        data: SliceStream<u32>,
        left: usize,
        failed: Rc<Cell<bool>>,
    }

    impl RecordStream<u32> for Failing {
        fn next_record(&mut self) -> PdmResult<Option<u32>> {
            if self.left == 0 {
                self.failed.set(true);
                return Err(PdmError::InvalidConfig("injected read failure".into()));
            }
            self.left -= 1;
            self.data.next_record()
        }
    }

    #[test]
    fn a_failing_source_ends_the_merge_with_its_error() {
        let mut rng = Pcg64::new(13);
        let (lane, min_part) = SMALL.unwrap();
        let inputs = runs(4, |_| 4 * lane, || rng.next_u32());
        let (expect, _, _) = tree_merge(&inputs);
        for fail_at in [0, 100, lane + 7, 3 * lane] {
            for threads in [2, 3] {
                let failed = Rc::new(Cell::new(false));
                let sources: Vec<Failing> = inputs
                    .iter()
                    .enumerate()
                    .map(|(s, run)| Failing {
                        data: SliceStream::new(run.clone()),
                        left: if s == 1 { fail_at } else { usize::MAX },
                        failed: Rc::clone(&failed),
                    })
                    .collect();
                let mut got = Vec::new();
                let err = windows(sources, threads, lane, min_part, |b: &[u32]| {
                    assert!(!failed.get(), "the sink was called after the failure");
                    got.extend_from_slice(b);
                    Ok(())
                })
                .unwrap_err();
                assert!(matches!(err, PdmError::InvalidConfig(_)), "{err}");
                assert!(failed.get());
                assert!(
                    got == expect[..got.len()],
                    "fail at {fail_at}: not a prefix"
                );
                if fail_at > lane {
                    assert!(!got.is_empty(), "fail at {fail_at}: no window merged");
                }
            }
        }
    }

    #[test]
    fn a_failing_sink_stops_the_merge() {
        let mut rng = Pcg64::new(17);
        let (lane, min_part) = SMALL.unwrap();
        let inputs = runs(3, |_| 20 * lane, || rng.next_u32());
        for threads in [2, 3] {
            let sources = inputs.iter().cloned().map(SliceStream::new).collect();
            let mut calls = 0;
            let err = windows(sources, threads, lane, min_part, |_: &[u32]| {
                calls += 1;
                match calls {
                    20 => Err(PdmError::InvalidConfig("sink full".into())),
                    _ => Ok(()),
                }
            })
            .unwrap_err();
            assert!(matches!(err, PdmError::InvalidConfig(_)), "{err}");
            assert_eq!(calls, 20, "{threads} threads");
        }
    }

    #[test]
    fn sequential_unless_the_pipeline_has_two_workers() {
        let inputs = [vec![1u32, 4, 6], vec![2, 3, 9]];
        for pipeline in [
            PipelineConfig::off(),
            PipelineConfig::with_workers(1),
            PipelineConfig::with_workers(2),
        ] {
            let sources = inputs.iter().cloned().map(SliceStream::new).collect();
            let mut out = Vec::new();
            let (records, selects) = merge(sources, &pipeline, |b: &[u32]| {
                out.extend_from_slice(b);
                Ok(())
            })
            .unwrap();
            assert_eq!(out, vec![1, 2, 3, 4, 6, 9]);
            assert_eq!((records, selects), (6, 1 + 6));
        }
    }
}
