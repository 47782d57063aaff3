//! Merge windows: one k-way merge cut into in-memory windows, each
//! merged by a loser tree or sorted by the radix kernel, on one thread or
//! several.
//!
//! The polyphase steps and `kway::merge_segments` (the balanced passes and
//! step 5) merge through [`merge`]. When the key is a total order
//! ([`pdm::Record::KEY_IS_TOTAL`]) it runs [`merge_windows`] for every
//! merge of at least `SORTED_FAN_IN` sources, with the pipeline on or off
//! (the sequential oracle and step 5 of the cluster workloads among them),
//! and for every merge of two or more sources when the pipeline is on with
//! two or more workers. Every other merge drains one [`LoserTree`].
//!
//! * **Lanes.** Each source keeps a lane of at least `LOOKAHEAD_BYTES`
//!   and `WINDOW_BYTES / k` of buffered records (`SORTED_WINDOW_BYTES / k`
//!   at a fan-in of `SORTED_FAN_IN` or more), topped up through
//!   [`RecordStream::next_batch`] (so the same blocks are read, in the same
//!   order). A short refill marks the source done.
//! * **Window.** The pivot is the smallest `(last buffered key, source)`
//!   over the sources that are not done. The window is every buffered
//!   record at or before the pivot in `(key, source)` order, which is the
//!   tree's order. Every unread record sorts after the pivot, so the window
//!   is the next stretch of the merged output.
//! * **Finish.** At a fan-in of `SORTED_FAN_IN` or more a window is
//!   finished by concatenating its lane slices and sorting them with the
//!   radix kernel ([`sort_chunk`]): a tree spends `⌊log₂ k⌋` selects per
//!   record, which at k = 8 and above costs more than sorting the window
//!   afresh in cache. Equal keys are equal records, so any sorted
//!   permutation of the window has the tree's bytes. A streaky window goes
//!   back to the tree, whose streak mode copies same-source runs out
//!   whole: one whose sampled records mostly equal their predecessor in
//!   their lane, or one that is mostly a single lane (`streaky`). On one
//!   thread there is no slice to hand out either, so the first streaky
//!   window hands the rest of the merge to one tree over each lane's
//!   buffered records followed by the rest of its source (`Resumed`): a
//!   tree per window would only add copies. Below `SORTED_FAN_IN` every
//!   window is merged by a tree.
//! * **Split.** With two or more threads the window is cut into one slice
//!   per thread at exact ranks: a binary search finds the key of the cut's
//!   record, and the records with that key are taken in source order, as
//!   the tree breaks ties. The calling thread's slice is two thirds the
//!   size of each helper's (`OWN_SHARE`), as it has the refills and the
//!   sink to serve too. A window of fewer than `MIN_PART` records a thread
//!   is cut into fewer slices, down to one.
//! * **Threads.** The calling thread finishes slice 0 straight into the
//!   sink. Helpers, spawned once per merge at its first split window,
//!   finish the other slices the same way (tree or sort) into an output
//!   `Vec` of their own (pushing through adjacent `Vec` headers would
//!   false-share). They read the lanes through an `Arc`, which the calling
//!   thread reclaims with `Arc::get_mut` before it refills, and the
//!   outputs travel by channel. A window's helper slices go to the sink
//!   after the next window is dispatched, so that copy overlaps the
//!   helpers' next merge, and always before the next window's slice 0.
//! * **Billing.** Selects are billed by the tree's formula,
//!   `(k − 1) + Σ_s n_s · ⌊log₂(s + k)⌋` for `n_s` records of source `s`,
//!   so no count depends on how the windows were cut or finished.
//!
//! Windows that split are counted on the calling thread's obs handle as
//! `merge.window.split`, windows finished by the radix kernel as
//! `merge.window.sorted`.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;

use pdm::{PdmResult, Record};

use crate::config::PipelineConfig;
use crate::kernel::{sort_chunk, SortKernel};
use crate::loser_tree::{LoserTree, LOOKAHEAD_BYTES};
use crate::stream::RecordStream;

/// Bytes of records the lanes of one merge buffer together.
const WINDOW_BYTES: usize = 2 << 20;

/// Fewest sources whose windows are sorted instead of merged. One
/// pipeline-off merge of 2²⁰ uniform `u32` records from an in-memory disk
/// on a 2-core Xeon, ns per record, tree → sorted windows (two runs):
/// k = 3 15.0–15.1 → 14.5–14.9, k = 7 16.0–16.8 → 13.3–15.5, k = 8
/// 16.2–17.2 → 13.5–15.6, k = 16 18.7–19.8 → 11.8–15.9, k = 64
/// 24.0–26.7 → 12.3–14.5. The tree spends `⌊log₂ k⌋` selects a record;
/// below 8 the sort's margin shrinks to nothing.
const SORTED_FAN_IN: usize = 8;

/// Bytes of records the lanes of a merge of `SORTED_FAN_IN` or more
/// sources buffer together, so that a window's radix sort stays in cache.
/// Same merge, 453 k records, ns per record: at k = 16, budgets of 128,
/// 256 and 512 KiB read 15.1–15.4, 15.5–16.9 and 19.7–19.8; at k = 64 the
/// 4 KiB lane floor gives 128 and 256 KiB the same lanes (14.7–15.8), and
/// 512 KiB read 14.5–15.0.
const SORTED_WINDOW_BYTES: usize = 256 << 10;

/// Records the streak screen samples from each lane of a window.
const STREAK_SAMPLES: usize = 8;

/// Fewest records in a slice: a window of fewer than `2 · MIN_PART`
/// records is merged on the calling thread alone.
const MIN_PART: usize = 16 << 10;

/// The calling thread's slice to each helper's, in rank share: besides its
/// own slice it refills the lanes and copies the helpers' slices to the
/// sink. On 2 cores, 2:3 (a 40% slice at two threads) merged a 7-way
/// polyphase phase about 5% faster than equal slices or 1:2.
const OWN_SHARE: usize = 2;
const HELPER_SHARE: usize = 3;

/// Merges `sources` into `sink` and returns `(records, selects)`. With a
/// key that is a total order, it runs [`merge_windows`] on
/// `pipeline.effective_workers()` threads when the pipeline is on with two
/// or more workers and there are at least two sources, and on the calling
/// thread alone when there are at least `SORTED_FAN_IN` sources; otherwise
/// it drains one [`LoserTree`].
pub(crate) fn merge<R: Record, S: RecordStream<R>>(
    sources: Vec<S>,
    pipeline: &PipelineConfig,
    sink: impl FnMut(&[R]) -> PdmResult<()>,
) -> PdmResult<(u64, u64)> {
    let k = sources.len();
    let threads = if pipeline.enabled {
        pipeline.effective_workers()
    } else {
        1
    };
    if R::HAS_SORT_KEY && R::KEY_IS_TOTAL && (k >= SORTED_FAN_IN || (threads >= 2 && k >= 2)) {
        merge_windows(sources, threads, sink)
    } else {
        let mut tree = LoserTree::new(sources)?;
        let records = tree.drain_to(sink)?;
        Ok((records, tree.comparisons()))
    }
}

/// A helper's work: its slice `ranges[s]` of every lane, whether to sort
/// it rather than merge it, and a spare output `Vec` to finish it into.
struct Job<R> {
    lanes: Arc<Vec<Vec<R>>>,
    ranges: Vec<(usize, usize)>,
    sort: bool,
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
    let k = sources.len();
    let budget = if k >= SORTED_FAN_IN {
        SORTED_WINDOW_BYTES
    } else {
        WINDOW_BYTES
    };
    let lane = LOOKAHEAD_BYTES.max(budget / k) / R::SIZE;
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
    // Whether a streaky window on one thread handed the rest to a tree.
    let handed_off = std::thread::scope(|scope| -> PdmResult<bool> {
        let mut helpers: Vec<Helper<R>> = Vec::new();
        // The last split window's helper slices, not yet in the sink.
        let mut pending: Vec<Vec<R>> = Vec::new();
        let mut spare: Vec<Vec<R>> = Vec::new();
        // The calling thread's sorted slice.
        let mut own = Vec::new();
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
            let window: Vec<&[R]> = bufs.iter().zip(&counts).map(|(b, &n)| &b[..n]).collect();
            let sort = k >= SORTED_FAN_IN && !streaky(&window, total);
            if !sort && threads == 1 {
                // Nothing to sort and no slice to hand out: the windows
                // would only add copies to the tree's streaks.
                return Ok(true);
            }
            if sort {
                obs::counter_add("merge.window.sorted", 1);
            }
            records += total as u64;
            selects += counts
                .iter()
                .enumerate()
                .map(|(s, &n)| n as u64 * u64::from((s + k).ilog2()))
                .sum::<u64>();
            let parts = (total / min_part).clamp(1, threads);
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
                        sort,
                        out: spare.pop().unwrap_or_default(),
                    };
                    helper.jobs.send(job).expect("a merge helper hung up");
                }
            }
            flush(&mut sink, &mut pending, &mut spare)?;
            let mine = slices(&lanes, &ranges(0));
            match mine.len() {
                0 => {}
                1 => sink(mine[0])?,
                _ if sort => {
                    own.clear();
                    finish_into(mine, true, &mut own)?;
                    sink(&own)?;
                }
                _ => {
                    LoserTree::new(mine)?.drain_to(&mut sink)?;
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
        flush(&mut sink, &mut pending, &mut spare).map(|_| false)
    })?;
    if handed_off {
        // The lanes' records come first, then the rest of each source; the
        // tree bills `k − 1` for its build, already billed above.
        let lanes = Arc::into_inner(lanes).expect("helpers release the lanes");
        let rest = lanes
            .into_iter()
            .zip(sources)
            .zip(done)
            .map(|((lane, rest), done)| Resumed {
                lane,
                pos: 0,
                rest: (!done).then_some(rest),
            })
            .collect();
        let mut tree = LoserTree::new(rest)?;
        records += tree.drain_to(sink)?;
        selects += tree.comparisons() - (k as u64 - 1);
    }
    Ok((records, selects))
}

/// A source handed from the windows to a tree: its buffered lane, then
/// the rest of the source unless that is done.
struct Resumed<R, S> {
    lane: Vec<R>,
    pos: usize,
    rest: Option<S>,
}

impl<R: Record, S: RecordStream<R>> RecordStream<R> for Resumed<R, S> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        match self.lane.get(self.pos) {
            Some(&r) => {
                self.pos += 1;
                Ok(Some(r))
            }
            None => self.rest.as_mut().map_or(Ok(None), S::next_record),
        }
    }

    fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let left = &self.lane[self.pos..];
        if left.is_empty() {
            return self.rest.as_mut().map_or(Ok(0), |s| s.next_batch(out, max));
        }
        let n = left.len().min(max);
        out.extend_from_slice(&left[..n]);
        self.pos += n;
        Ok(n)
    }
}

/// Whether a window of `total` records, `window[s]` from lane `s`, should
/// be merged by the tree even at a fan-in that sorts: when one lane holds
/// at least three quarters of it, or when at least half of the records
/// sampled from the lanes (`STREAK_SAMPLES` a lane) have their
/// predecessor's key. Either way most of the output leaves in long
/// same-source streaks, which the tree copies out whole.
fn streaky<R: Record>(window: &[&[R]], total: usize) -> bool {
    if window.iter().any(|w| 4 * w.len() >= 3 * total) {
        return true;
    }
    let (mut sampled, mut equal) = (0usize, 0usize);
    for w in window {
        let step = (w.len() / STREAK_SAMPLES).max(1);
        for i in (1..w.len()).step_by(step) {
            sampled += 1;
            equal += usize::from(w[i].sort_key() == w[i - 1].sort_key());
        }
    }
    2 * equal >= sampled
}

/// Finishes one slice of a window, its non-empty lane slices `parts`,
/// onto the end of `out`: by concatenating them and sorting with the radix
/// kernel when `sort` (a lone slice is only copied), or by a tree.
fn finish_into<R: Record>(parts: Vec<&[R]>, sort: bool, out: &mut Vec<R>) -> PdmResult<()> {
    if !sort && parts.len() > 1 {
        return LoserTree::new(parts)?.drain_into(out).map(drop);
    }
    let start = out.len();
    for part in &parts {
        out.extend_from_slice(part);
    }
    if parts.len() > 1 {
        sort_chunk(&mut out[start..], SortKernel::Radix);
    }
    Ok(())
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

/// Starts a helper that finishes the slices it is sent until the calling
/// thread hangs up. It drops its hold on the lanes before it answers.
fn spawn_helper<'scope, R: Record>(scope: &'scope Scope<'scope, '_>) -> Helper<R> {
    let (jobs, inbox) = channel::<Job<R>>();
    let (outbox, merged) = channel();
    scope.spawn(move || {
        for Job {
            lanes,
            ranges,
            sort,
            mut out,
        } in inbox
        {
            out.clear();
            let result = finish_into(slices(&lanes, &ranges), sort, &mut out);
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
    use pdm::record::KeyPayload;
    use pdm::PdmError;
    use sim::rng::{Pcg64, Rng};
    use std::cell::Cell;
    use std::ops::Range;
    use std::rc::Rc;

    /// The tree's output, `produced` and `comparisons` over `inputs`.
    fn tree_merge<R: Record>(inputs: &[Vec<R>]) -> (Vec<R>, u64, u64) {
        let sources = inputs.iter().cloned().map(SliceStream::new).collect();
        let mut tree = LoserTree::new(sources).unwrap();
        let mut out = Vec::new();
        tree.drain_into(&mut out).unwrap();
        (out, tree.produced(), tree.comparisons())
    }

    /// Lanes and slices small enough that a merge of a few thousand
    /// records per source takes many windows and splits them.
    const SMALL: Option<(usize, usize)> = Some((1000, 256));

    /// What one windowed merge produced and counted.
    struct Windowed<R> {
        out: Vec<R>,
        records: u64,
        selects: u64,
        /// Windows counted as `merge.window.split`.
        split: u64,
        /// Windows counted as `merge.window.sorted`.
        sorted: u64,
    }

    /// Runs `f` with a tracer installed; returns its result and the
    /// `merge.window.split` and `merge.window.sorted` counts.
    fn counting<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
        let tracer = obs::Obs::enabled();
        let guard = obs::install(tracer.clone());
        let out = f();
        drop(guard);
        let node = tracer.finish(0, "merge".to_string());
        let count = |name| node.metrics.counters.get(name).copied().unwrap_or(0);
        (
            out,
            count("merge.window.split"),
            count("merge.window.sorted"),
        )
    }

    /// The windowed merge on `threads` threads, with the production lanes
    /// and slices or `small` ones.
    fn window_merge<R: Record>(
        inputs: &[Vec<R>],
        threads: usize,
        small: Option<(usize, usize)>,
    ) -> Windowed<R> {
        let ((out, (records, selects)), split, sorted) = counting(|| {
            let sources = inputs.iter().cloned().map(SliceStream::new).collect();
            let mut out = Vec::new();
            let sink = |b: &[R]| {
                out.extend_from_slice(b);
                Ok(())
            };
            let counts = match small {
                Some((lane, min_part)) => windows(sources, threads, lane, min_part, sink),
                None => merge_windows(sources, threads, sink),
            }
            .unwrap();
            (out, counts)
        });
        Windowed {
            out,
            records,
            selects,
            split,
            sorted,
        }
    }

    /// `k` sorted runs of `len(s)` records each, keys drawn by `key`.
    fn runs<T: Ord>(
        k: usize,
        len: impl Fn(usize) -> usize,
        mut key: impl FnMut() -> T,
    ) -> Vec<Vec<T>> {
        (0..k)
            .map(|s| {
                let mut run: Vec<T> = (0..len(s)).map(|_| key()).collect();
                run.sort_unstable();
                run
            })
            .collect()
    }

    /// Asserts the windowed merge on each of `threads` matches the tree
    /// (output bytes, `produced`, `comparisons`); returns the last run's
    /// split and sorted window counts.
    fn check_on<R: Record>(
        inputs: &[Vec<R>],
        threads: &[usize],
        small: Option<(usize, usize)>,
        what: &str,
    ) -> (u64, u64) {
        let (expect, produced, comparisons) = tree_merge(inputs);
        let mut counts = (0, 0);
        for &t in threads {
            let run = window_merge(inputs, t, small);
            assert!(run.out == expect, "{what}, {t} threads: output differs");
            assert_eq!(run.records, produced, "{what}, {t} threads");
            assert_eq!(run.selects, comparisons, "{what}, {t} threads");
            counts = (run.split, run.sorted);
        }
        counts
    }

    /// Asserts the windowed merge matches the tree on 3 and 2 threads;
    /// returns the 2-thread run's split-window count.
    fn check(inputs: &[Vec<u32>], small: Option<(usize, usize)>, what: &str) -> u64 {
        check_on(inputs, &[3, 2], small, what).0
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

    /// A named key shape as `u64` runs, with the range its count of sorted
    /// windows must fall in.
    type Shape = (&'static str, Vec<Vec<u64>>, Range<u64>);

    /// Key shapes for the sorted-window tests.
    fn wide_shapes(k: usize, n: usize, rng: &mut Pcg64) -> Vec<Shape> {
        let span = (k * n / 2) as u64;
        let some = 1..u64::MAX;
        vec![
            ("uniform", runs(k, |_| n, || rng.next_u64()), some.clone()),
            (
                "sparse duplicates",
                runs(k, |_| n, || rng.next_u64() % span),
                some,
            ),
            (
                "empty and single-record sources",
                runs(k, |s| [0, 1, n][s % 3], || rng.next_u64()),
                0..u64::MAX,
            ),
            // Sorted windows first; on one thread the first streaky
            // window hands the rest, half-read lanes too, to a tree.
            (
                "uniform, then one repeated key",
                runs(
                    k,
                    |_| n,
                    || match rng.next_u32() % 2 {
                        0 => rng.next_u64() >> 1,
                        _ => u64::MAX,
                    },
                ),
                1..u64::MAX,
            ),
            ("all-equal", runs(k, |_| n, || 7), 0..1),
            (
                "heavy duplicates",
                runs(k, |_| n, || rng.next_u64() % 5),
                0..1,
            ),
            // Each window is one source's lane, but where a source ends
            // and the next begins.
            (
                "disjoint sources",
                (0..(k * n) as u64)
                    .collect::<Vec<_>>()
                    .chunks(n)
                    .map(<[u64]>::to_vec)
                    .collect(),
                0..k as u64,
            ),
        ]
    }

    #[test]
    fn sorted_windows_match_the_tree() {
        let mut rng = Pcg64::new(23);
        // Lanes of 64 records: every source takes about ten windows.
        let small = Some((64, 32));
        for k in [8usize, 16, 64, 65] {
            for (shape, keys, expect) in wide_shapes(k, 600, &mut rng) {
                let narrow: Vec<Vec<u32>> = keys
                    .iter()
                    .map(|run| {
                        let mut run: Vec<u32> = run.iter().map(|&x| x as u32).collect();
                        run.sort_unstable();
                        run
                    })
                    .collect();
                let what = format!("k={k} {shape}");
                let (_, sorted_wide) = check_on(&keys, &[2, 1], small, &format!("{what} u64"));
                let (split, sorted) = check_on(&narrow, &[1, 2], small, &format!("{what} u32"));
                for sorted in [sorted, sorted_wide] {
                    assert!(expect.contains(&sorted), "{what}: {sorted} windows sorted");
                }
                if expect.start > 0 {
                    assert!(split > 0, "{what}: no window split");
                }
            }
        }
    }

    #[test]
    fn sorted_windows_match_the_tree_with_production_lanes() {
        // Three lanes' worth of records per source.
        let mut rng = Pcg64::new(29);
        for k in [16, 64] {
            let lane = SORTED_WINDOW_BYTES / k / 4;
            let inputs = runs(k, |_| 3 * lane, || rng.next_u32());
            let (_, sorted) = check_on(&inputs, &[1, 2], None, &format!("k={k}"));
            assert!(sorted > 1, "k={k}: {sorted} windows sorted");
        }
    }

    /// `merge`'s output and its split and sorted window counts.
    fn merged<R: Record>(inputs: &[Vec<R>], pipeline: &PipelineConfig) -> (Vec<R>, u64, u64) {
        let (out, split, sorted) = counting(|| {
            let sources = inputs.iter().cloned().map(SliceStream::new).collect();
            let mut out = Vec::new();
            merge(sources, pipeline, |b: &[R]| {
                out.extend_from_slice(b);
                Ok(())
            })
            .unwrap();
            out
        });
        (out, split, sorted)
    }

    #[test]
    fn windows_are_sorted_from_fan_in_eight_with_the_pipeline_on_or_off() {
        let mut rng = Pcg64::new(31);
        for k in [7, SORTED_FAN_IN] {
            let inputs = runs(k, |_| 20_000, || rng.next_u32());
            for pipeline in [PipelineConfig::off(), PipelineConfig::with_workers(2)] {
                let (out, _, sorted) = merged(&inputs, &pipeline);
                assert!(out == tree_merge(&inputs).0, "k={k}: output differs");
                assert_eq!(sorted > 0, k >= SORTED_FAN_IN, "k={k}: {sorted} sorted");
            }
        }
    }

    #[test]
    fn a_key_that_is_not_total_stays_on_the_tree() {
        // 16 sources of 4 keys with payloads that differ by source: equal
        // keys are not equal records, so no window may be sorted by key.
        let mut rng = Pcg64::new(37);
        let k = 16;
        let inputs: Vec<Vec<KeyPayload>> = (0..k)
            .map(|s| {
                let mut run: Vec<KeyPayload> = (0..5000)
                    .map(|_| KeyPayload::new(rng.next_u64() % 4, (k - s) as u64))
                    .collect();
                run.sort_unstable();
                run
            })
            .collect();
        let (expect, _, _) = tree_merge(&inputs);
        for pipeline in [PipelineConfig::off(), PipelineConfig::with_workers(2)] {
            let (out, split, sorted) = merged(&inputs, &pipeline);
            assert!(out == expect, "output differs from the tree's");
            assert_eq!((split, sorted), (0, 0));
        }
    }

    #[test]
    fn streak_screen_sends_duplicates_and_single_lanes_to_the_tree() {
        // A 64-record lane whose first `m` records share one key.
        let lane = |m: u32| -> Vec<u32> { (0..64).map(|x| if x < m { 0 } else { x }).collect() };
        let (half, three_eighths, distinct) = (lane(33), lane(25), lane(0));
        // Half the sampled records equal their predecessor: streaky.
        assert!(streaky(&[&half, &half], 128));
        // Three eighths of them do: sorted.
        assert!(!streaky(&[&three_eighths, &three_eighths], 128));
        assert!(!streaky(&[&distinct, &distinct[..32]], 96));
        // One lane with three quarters of the window.
        assert!(streaky(&[&distinct[..48], &distinct[..16]], 64));
        assert!(!streaky(&[&distinct[..47], &distinct[..17]], 64));
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
