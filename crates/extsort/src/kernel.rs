//! Pluggable CPU sort kernels for the in-core sorting steps.
//!
//! Every sorter in this crate (and the local sorts in `hetsort::incore`)
//! funnels its in-core sorting through [`sort_chunk`], selected by a
//! [`SortKernel`]:
//!
//! * [`SortKernel::Comparison`] — `sort_unstable`, priced by the classical
//!   `n·⌈log₂ n⌉` comparison estimate. The reference path: simplest, and
//!   what the paper's 2002 Alpha code did.
//! * [`SortKernel::Radix`] — radix sort on the record's order-preserving
//!   [`pdm::Record::sort_key`], 8-bit digits, with an insertion-sort cutoff
//!   for small chunks and a skip for trivial digits (digits every key
//!   shares). Its physical passes depend on the chunk:
//!   - *Few distinct keys.* When the key is a total order, keys are first
//!     counted in a hash table of at most `min(n/16, 2¹⁶)` slots. The count
//!     gives up, leaving the chunk untouched, once more than half the slots
//!     are used, or when more than 512 of the first 1024 records are
//!     distinct. That screen runs before the full table is allocated. On
//!     the benchmark distributions it admits every zipf-duplicates and
//!     zero chunk and turns away every other one (measured prefix counts
//!     at `COUNT_PREFIX`). Otherwise the distinct keys are sorted and each
//!     record is written out repeated by its count.
//!   - *Chunks that do not fit in cache.* Above 2 MiB, with at least two
//!     nontrivial digits, one scatter on the top nontrivial digit splits
//!     the chunk into 256 buckets, and each bucket is finished by stable
//!     LSD passes over the digits below, within cache.
//!   - *Other chunks* run stable LSD passes over the whole chunk.
//!
//!   Every path is billed as a whole-chunk 8-bit LSD sort:
//!   [`KernelWork::key_ops`] is `n·(1 + nontrivial digits)`, plus `n` for
//!   the cleanup pass below. The billed count is the cost model's input
//!   and is deterministic in the chunk's contents; it is not the number of
//!   physical passes. A key pass is far cheaper per unit than a comparison:
//!   it touches every record once, with no branch to mispredict.
//!
//! Both kernels produce **byte-identical** output: every
//! [`pdm::Record`] has a total `Ord`, so equal records are bitwise equal
//! and any correct sort yields the same byte sequence. Records whose key is
//! not a total order ([`pdm::Record::KEY_IS_TOTAL`] `== false`, e.g.
//! [`pdm::record::KeyPayload`]) are never counted, and get a cleanup pass
//! that finishes equal-key groups with the full `Ord`. Records without a
//! usable key fall back to the comparison path. The differential tests in
//! `tests/kernel_differential.rs` enforce byte identity across kernels.

use pdm::Record;

use crate::report::incore_sort_comparisons;

/// Which in-core sorting kernel the sorters use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortKernel {
    /// `sort_unstable` on the full record `Ord` — the reference path kept
    /// for differential testing and for the paper-faithful Table 2 pricing.
    Comparison,
    /// LSD radix sort on `sort_key()` — the default fast path.
    #[default]
    Radix,
}

impl SortKernel {
    /// Parses a CLI spelling (`comparison` | `radix`).
    pub fn parse(s: &str) -> Option<SortKernel> {
        match s {
            "comparison" => Some(SortKernel::Comparison),
            "radix" => Some(SortKernel::Radix),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            SortKernel::Comparison => "comparison",
            SortKernel::Radix => "radix",
        }
    }

    /// Whether this kernel sorts type `R` by its cached key (and therefore
    /// whether tournament selects over `R` should be priced as key ops).
    pub fn key_based<R: Record>(&self) -> bool {
        *self == SortKernel::Radix && R::HAS_SORT_KEY
    }

    /// Bills `selects` loser-tree selects over `R`: key ops under a
    /// key-based kernel (the tree resolves them on cached keys), full
    /// comparisons otherwise. Every merge reports its selects through this.
    pub fn bill_selects<R: Record>(&self, selects: u64) -> KernelWork {
        if self.key_based::<R>() {
            KernelWork {
                comparisons: 0,
                key_ops: selects,
            }
        } else {
            KernelWork {
                comparisons: selects,
                key_ops: 0,
            }
        }
    }
}

/// Work counted by one kernel invocation. Deterministic in the input data,
/// so pipelined and sequential executions report identical counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelWork {
    /// Full-record comparisons (comparison kernel, insertion-sorted small
    /// chunks, cleanup of equal-key groups).
    pub comparisons: u64,
    /// Key-pass record touches: one per record per radix pass (histogram,
    /// distribution, and cleanup-scan passes alike).
    pub key_ops: u64,
}

impl KernelWork {
    /// Combines two work tallies.
    #[must_use]
    pub fn plus(self, other: KernelWork) -> KernelWork {
        KernelWork {
            comparisons: self.comparisons + other.comparisons,
            key_ops: self.key_ops + other.key_ops,
        }
    }
}

/// Below this length the radix kernel insertion-sorts instead: per-digit
/// histograms over 256 buckets cost more than they save on tiny chunks.
pub const RADIX_INSERTION_CUTOFF: usize = 64;

/// Sorts `data` in-core with the chosen kernel and returns the counted
/// work. The result is byte-identical to `data.sort_unstable()` for every
/// kernel (total `Ord` ⇒ equal records are bitwise equal).
pub fn sort_chunk<R: Record>(data: &mut [R], kernel: SortKernel) -> KernelWork {
    match kernel {
        SortKernel::Comparison => comparison_sort(data),
        SortKernel::Radix => {
            if !R::HAS_SORT_KEY {
                // No usable key: the comparison path is the radix fallback.
                comparison_sort(data)
            } else if data.len() <= RADIX_INSERTION_CUTOFF {
                KernelWork {
                    comparisons: insertion_sort(data),
                    key_ops: 0,
                }
            } else {
                radix_sort(data)
            }
        }
    }
}

fn comparison_sort<R: Record>(data: &mut [R]) -> KernelWork {
    data.sort_unstable();
    KernelWork {
        comparisons: incore_sort_comparisons(data.len() as u64),
        key_ops: 0,
    }
}

/// Stable insertion sort, counting its actual comparisons.
fn insertion_sort<R: Record>(data: &mut [R]) -> u64 {
    let mut comparisons = 0u64;
    for i in 1..data.len() {
        let x = data[i];
        let mut j = i;
        while j > 0 {
            comparisons += 1;
            if data[j - 1] > x {
                data[j] = data[j - 1];
                j -= 1;
            } else {
                break;
            }
        }
        data[j] = x;
    }
    comparisons
}

/// Radix chunks larger than this many bytes are first scattered once on
/// their top nontrivial digit, so the remaining LSD passes run on buckets
/// that fit in cache. Measured on uniform `u32` chunks on a 2-core Xeon
/// (48 KiB L1d, 2 MiB L2 per core), MSD first was 5–45% slower than plain
/// LSD from 256 KiB to 1.5 MiB, level at 2 MiB, and 8–80% faster from
/// 3 MiB up.
const RADIX_MSD_BYTES: usize = 2 << 20;

/// Most slots the counting path's key table may have; it never has more
/// than one per 16 records of the chunk.
const COUNT_MAX_SLOTS: usize = 1 << 16;

/// The counting path first counts this many records in a small table and
/// gives up if more than [`COUNT_PREFIX_DISTINCT`] of them are distinct,
/// before it allocates the full table ([`few_distinct_prefix`]).
///
/// Distinct keys among the first `m` records of 2²⁰-record chunks of the
/// perf 1,1,4,4 node blocks (n = 2²⁴, seeds 3/5/7/11/23, 90 chunks per
/// distribution):
///
/// | `m` | zipf-duplicates, min–max (mean) | hot-key | zero | the other seven |
/// |---|---|---|---|---|
/// | 256 | 105–148 (127) | 161–204 | 1 | 256 |
/// | 1024 | 333–402 (368) | 699–767 | 1 | 1023–1024 |
///
/// A limit of 128 of 256 sits on the zipf mean and turned away about half
/// of those chunks, although each holds at most 4096 distinct keys. 512 of
/// 1024 lies well between zipf's highest count (402) and hot-key's lowest
/// (699).
const COUNT_PREFIX: usize = 1024;
const COUNT_PREFIX_DISTINCT: usize = 512;

/// One histogram per 8-bit digit of the `u64` sort key.
type Histograms = [[usize; 256]; 8];

/// Fills `hist[d]` with the histogram of digit `d` of `data`'s keys, for
/// every `d < hist.len()`, in one read pass.
fn count_digits<R: Record>(data: &[R], hist: &mut [[usize; 256]]) {
    for h in hist.iter_mut() {
        h.fill(0);
    }
    for r in data {
        let k = r.sort_key();
        for (d, h) in hist.iter_mut().enumerate() {
            h[(k >> (8 * d)) as u8 as usize] += 1;
        }
    }
}

/// Whether digit `d`'s pass moves anything: a digit every key shares is
/// trivial.
fn nontrivial(hist: &Histograms, d: usize, n: usize) -> bool {
    !hist[d].contains(&n)
}

/// Radix sort on `sort_key()`, 8-bit digits. Chunks whose keys are a total
/// order and take few distinct values are counted instead ([`counting_sort`]).
/// Otherwise all 8 histograms are built in one read pass and trivial digit
/// passes are skipped. A chunk larger than [`RADIX_MSD_BYTES`] with at
/// least two nontrivial digits is scattered once on its top nontrivial
/// digit, and each bucket is finished by LSD passes over the digits below;
/// smaller chunks run LSD passes over the whole chunk. Finished by a
/// full-`Ord` cleanup of equal-key groups when the key is not a total order.
///
/// Every path bills the work of a whole-chunk LSD sort: one histogram pass
/// plus one pass per nontrivial digit, and the cleanup pass. The cost model
/// prices that bill, not the physical passes.
fn radix_sort<R: Record>(data: &mut [R]) -> KernelWork {
    if R::KEY_IS_TOTAL {
        if let Some(work) = counting_sort(data) {
            return work;
        }
    }
    let n = data.len();
    let mut hist = [[0usize; 256]; 8];
    count_digits(data, &mut hist);
    let digits = (0..8).filter(|&d| nontrivial(&hist, d, n)).count();
    let mut key_ops = n as u64 * (1 + digits as u64);

    let mut scratch: Vec<R> = data.to_vec();
    if digits >= 2 && n * R::SIZE > RADIX_MSD_BYTES {
        let top = (0..8)
            .rfind(|&d| nontrivial(&hist, d, n))
            .expect("two nontrivial digits");
        let starts = prefix_sums(&hist[top]);
        let mut ends = starts;
        distribute(data, &mut scratch, top, &mut ends);
        // Every key in a bucket shares the digits from `top` up. Sort each
        // bucket on the digits below, with its own histograms written over
        // the chunk's.
        for (&lo, &hi) in starts.iter().zip(&ends) {
            let (src, dst) = (&mut scratch[lo..hi], &mut data[lo..hi]);
            if src.len() <= RADIX_INSERTION_CUTOFF {
                dst.copy_from_slice(src);
                insertion_sort(dst);
                continue;
            }
            count_digits(src, &mut hist[..top]);
            if !lsd(src, dst, &hist, top) {
                dst.copy_from_slice(src);
            }
        }
    } else if lsd(data, &mut scratch, &hist, 8) {
        data.copy_from_slice(&scratch);
    }

    let mut comparisons = 0u64;
    if !R::KEY_IS_TOTAL {
        // Equal keys do not imply equal records: finish each equal-key
        // group with the full `Ord` (one scan pass + small sorts).
        key_ops += n as u64;
        let mut i = 0usize;
        while i < n {
            let k = data[i].sort_key();
            let mut j = i + 1;
            while j < n && data[j].sort_key() == k {
                j += 1;
            }
            if j - i > 1 {
                data[i..j].sort_unstable();
                comparisons += incore_sort_comparisons((j - i) as u64);
            }
            i = j;
        }
    }
    KernelWork {
        comparisons,
        key_ops,
    }
}

/// Stable LSD passes over the nontrivial digits among `0..digits`,
/// ping-ponging between `src` (which holds the records) and `dst`. Returns
/// whether the sorted records ended in `dst`.
fn lsd<R: Record>(src: &mut [R], dst: &mut [R], hist: &Histograms, digits: usize) -> bool {
    let n = src.len();
    let mut in_dst = false;
    for d in (0..digits).filter(|&d| nontrivial(hist, d, n)) {
        let mut offs = prefix_sums(&hist[d]);
        if in_dst {
            distribute(dst, src, d, &mut offs);
        } else {
            distribute(src, dst, d, &mut offs);
        }
        in_dst = !in_dst;
    }
    in_dst
}

/// Exclusive prefix sums: each bucket's first output index.
fn prefix_sums(h: &[usize; 256]) -> [usize; 256] {
    let mut offs = [0usize; 256];
    let mut sum = 0usize;
    for (o, &c) in offs.iter_mut().zip(h) {
        *o = sum;
        sum += c;
    }
    offs
}

fn distribute<R: Record>(src: &[R], dst: &mut [R], digit: usize, offs: &mut [usize; 256]) {
    let shift = 8 * digit;
    for &r in src {
        let b = (r.sort_key() >> shift) as u8 as usize;
        dst[offs[b]] = r;
        offs[b] += 1;
    }
}

/// The counting path for records whose key is a total order, so equal
/// keys are equal records. Counts the keys in a bounded hash table and, if
/// few enough are distinct, writes each distinct record back repeated by
/// its count, in key order. Returns `None`, with `data` untouched, when
/// the chunk has too many distinct keys: more than
/// [`COUNT_PREFIX_DISTINCT`] among the first [`COUNT_PREFIX`] records
/// ([`few_distinct_prefix`]), or more than half of [`count_slots`] in all.
///
/// Bills what the LSD path would: the nontrivial digits are those where
/// some key differs from the smallest, the same test as the histograms'.
fn counting_sort<R: Record>(data: &mut [R]) -> Option<KernelWork> {
    debug_assert!(R::KEY_IS_TOTAL);
    let n = data.len();
    let fill = *data.first()?;
    if !few_distinct_prefix(&data[..n.min(COUNT_PREFIX)]) {
        return None;
    }
    let slots = count_slots(n);
    let mut counts = KeyCounts::new(slots, slots / 2, fill);
    if !data.iter().all(|&r| counts.add(r)) {
        return None;
    }
    let keys = counts.sorted();
    let k_min = keys.first().map_or(0, |&(k, _, _)| k);
    let spread = keys.iter().fold(0u64, |acc, &(k, _, _)| acc | (k ^ k_min));
    let digits = (0..8).filter(|&d| (spread >> (8 * d)) as u8 != 0).count();
    let mut i = 0usize;
    for (_, c, r) in keys {
        data[i..i + c].fill(r);
        i += c;
    }
    Some(KernelWork {
        comparisons: 0,
        key_ops: n as u64 * (1 + digits as u64),
    })
}

/// The counting path's screen: whether `prefix`, a chunk's first
/// [`COUNT_PREFIX`] records, holds at most [`COUNT_PREFIX_DISTINCT`]
/// distinct keys. A small table screens out chunks of mostly distinct keys
/// before the full table is allocated.
fn few_distinct_prefix<R: Record>(prefix: &[R]) -> bool {
    let Some(&fill) = prefix.first() else {
        return true;
    };
    let mut table = KeyCounts::new(2 * COUNT_PREFIX_DISTINCT, COUNT_PREFIX_DISTINCT, fill);
    prefix.iter().all(|&r| table.add(r))
}

/// The counting path's table size for an `n`-record chunk: the largest
/// power of two at most `min(n / 16, COUNT_MAX_SLOTS)`, and at least 2.
fn count_slots(n: usize) -> usize {
    let cap = (n / 16).clamp(2, COUNT_MAX_SLOTS);
    1 << cap.ilog2()
}

/// Open-addressing key counter with linear probing. Keys, counts and
/// records sit in parallel slot arrays, so a hit reads one slot.
struct KeyCounts<R> {
    keys: Vec<u64>,
    /// `0` marks an empty slot.
    counts: Vec<usize>,
    /// One record per used slot; equal keys mean equal records.
    recs: Vec<R>,
    used: usize,
    /// Most distinct keys before [`KeyCounts::add`] gives up.
    limit: usize,
    /// `64 - log₂ slots`: the hash keeps the product's top bits.
    shift: u32,
}

impl<R: Record> KeyCounts<R> {
    /// A table of `slots` (a power of two, at least 2) that holds at most
    /// `limit` keys. `limit < slots` keeps an empty slot for every probe
    /// to stop at. `fill` initialises the unused records.
    fn new(slots: usize, limit: usize, fill: R) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= 2 && limit < slots);
        KeyCounts {
            keys: vec![0; slots],
            counts: vec![0; slots],
            recs: vec![fill; slots],
            used: 0,
            limit,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Counts `r`; `false` if it is a new key beyond the limit.
    #[inline]
    fn add(&mut self, r: R) -> bool {
        let k = r.sort_key();
        let mask = self.keys.len() - 1;
        // Fibonacci hashing.
        let mut i = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            if self.counts[i] == 0 {
                if self.used == self.limit {
                    return false;
                }
                self.used += 1;
                self.keys[i] = k;
                self.counts[i] = 1;
                self.recs[i] = r;
                return true;
            }
            if self.keys[i] == k {
                self.counts[i] += 1;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// `(key, count, record)` of every counted key, in key order.
    fn sorted(self) -> Vec<(u64, usize, R)> {
        let mut out: Vec<(u64, usize, R)> = (0..self.keys.len())
            .filter(|&i| self.counts[i] != 0)
            .map(|i| (self.keys[i], self.counts[i], self.recs[i]))
            .collect();
        out.sort_unstable_by_key(|&(k, _, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::record::KeyPayload;
    use sim::rng::{Pcg64, Rng};
    use workloads::{generate_block, Benchmark, Layout};

    fn check_matches_reference<R: Record>(data: Vec<R>) -> KernelWork {
        check_kernel(data, SortKernel::Radix)
    }

    fn check_kernel<R: Record>(mut data: Vec<R>, kernel: SortKernel) -> KernelWork {
        let mut expect = data.clone();
        expect.sort_unstable();
        let work = sort_chunk(&mut data, kernel);
        assert_eq!(
            data,
            expect,
            "{} kernel must match sort_unstable",
            kernel.name()
        );
        work
    }

    #[test]
    fn radix_sorts_u32_u64() {
        let mut rng = Pcg64::new(7);
        check_matches_reference((0..5000).map(|_| rng.next_u32()).collect::<Vec<_>>());
        check_matches_reference((0..5000).map(|_| rng.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn radix_sorts_signed() {
        let mut rng = Pcg64::new(8);
        check_matches_reference((0..3000).map(|_| rng.next_u32() as i32).collect::<Vec<_>>());
        check_matches_reference((0..3000).map(|_| rng.next_u64() as i64).collect::<Vec<_>>());
        check_matches_reference(vec![i32::MIN, i32::MAX, -1, 0, 1]);
    }

    #[test]
    fn radix_sorts_keypayload_with_duplicate_keys() {
        // Non-total key: payload ties must still come out in full-Ord order.
        let mut rng = Pcg64::new(9);
        let data: Vec<KeyPayload> = (0..4000)
            .map(|_| KeyPayload::new(rng.next_u64() % 16, rng.next_u64()))
            .collect();
        let work = check_matches_reference(data);
        assert!(work.comparisons > 0, "cleanup pass must have sorted ties");
    }

    #[test]
    fn small_chunks_use_insertion_sort() {
        let mut rng = Pcg64::new(10);
        for n in [0usize, 1, 2, 3, RADIX_INSERTION_CUTOFF] {
            let work = check_matches_reference((0..n).map(|_| rng.next_u32()).collect::<Vec<_>>());
            assert_eq!(work.key_ops, 0, "n = {n} should not radix");
        }
    }

    #[test]
    fn trivial_passes_skipped_for_narrow_keys() {
        // u32 keys: the top four digit passes are trivial, u16 the top six.
        let mut rng = Pcg64::new(11);
        let n = 1000u64;
        let w32 = check_matches_reference((0..n).map(|_| rng.next_u32()).collect::<Vec<_>>());
        assert_eq!(w32.key_ops, 5 * n, "u32");
        let w16 =
            check_matches_reference((0..n).map(|_| rng.next_u32() as u16).collect::<Vec<_>>());
        assert_eq!(w16.key_ops, 3 * n, "u16");
    }

    /// The radix bill, computed independently of the kernel: one histogram
    /// pass plus one pass per nontrivial 8-bit digit and, for keys that are
    /// not a total order, the cleanup scan plus a comparison sort of every
    /// equal-key group.
    fn expected_radix_work<R: Record>(data: &[R]) -> KernelWork {
        let n = data.len();
        let mut hist = vec![[0usize; 256]; 8];
        for r in data {
            for (d, h) in hist.iter_mut().enumerate() {
                h[(r.sort_key() >> (8 * d)) as u8 as usize] += 1;
            }
        }
        let digits = hist.iter().filter(|h| !h.contains(&n)).count() as u64;
        let mut work = KernelWork {
            comparisons: 0,
            key_ops: n as u64 * (1 + digits),
        };
        if !R::KEY_IS_TOTAL {
            work.key_ops += n as u64;
            let mut keys: Vec<u64> = data.iter().map(Record::sort_key).collect();
            keys.sort_unstable();
            for group in keys.chunk_by(|a, b| a == b).filter(|g| g.len() > 1) {
                work.comparisons += incore_sort_comparisons(group.len() as u64);
            }
        }
        work
    }

    /// Radix-sorts `data`, checks it against `sort_unstable` and its bill
    /// against [`expected_radix_work`].
    fn check_bill<R: Record>(data: Vec<R>) {
        let expect = expected_radix_work(&data);
        assert_eq!(check_matches_reference(data), expect);
    }

    /// The record count of an `R` chunk exactly at the MSD threshold.
    fn msd_records<R: Record>() -> usize {
        RADIX_MSD_BYTES / R::SIZE
    }

    #[test]
    fn msd_threshold_bills_a_whole_chunk_lsd() {
        // u32 exactly at the threshold (LSD) and one record above (MSD).
        let mut rng = Pcg64::new(13);
        for n in [msd_records::<u32>(), msd_records::<u32>() + 1] {
            check_bill((0..n).map(|_| rng.next_u32()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn msd_path_bills_wide_and_signed_keys() {
        let mut rng = Pcg64::new(14);
        // u64 with u64::MAX present: the top digit is 7.
        let n = msd_records::<u64>() + 1;
        let mut keys: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 8).collect();
        keys[n / 2] = u64::MAX;
        check_bill(keys);
        // Signed keys, sign bit flipped into the top digit.
        check_bill(
            (0..msd_records::<i32>() + 1)
                .map(|_| rng.next_u32() as i32)
                .collect::<Vec<_>>(),
        );
        check_bill(
            (0..msd_records::<i64>() + 1)
                .map(|_| rng.next_u64() as i64)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn msd_path_needs_two_nontrivial_digits() {
        // u16 keys have two nontrivial digits and take the MSD path above
        // the threshold; keys below 256 have one, so they never do (and are
        // too many distinct for the counting path).
        let mut rng = Pcg64::new(15);
        let n = msd_records::<u16>() + 1;
        check_bill((0..n).map(|_| rng.next_u32() as u16).collect::<Vec<_>>());
        check_bill(
            (0..n)
                .map(|_| rng.next_u32() as u8 as u16)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn msd_path_keeps_keypayload_cleanup() {
        // Never counted; equal-key groups still get their full-`Ord` sort
        // after the MSD scatter, at and above the threshold.
        let mut rng = Pcg64::new(16);
        for n in [msd_records::<KeyPayload>(), msd_records::<KeyPayload>() + 1] {
            let data: Vec<KeyPayload> = (0..n)
                .map(|_| KeyPayload::new(rng.next_u64() % 4096, rng.next_u64()))
                .collect();
            check_bill(data);
        }
    }

    #[test]
    fn counting_path_bills_a_whole_chunk_lsd() {
        // The all-equal chunk is `duplicate_heavy_input_is_cheap`.
        let two_keys: Vec<u64> = (0..5000u64)
            .map(|i| if i % 3 == 0 { 0x0100_0000_0002 } else { 7 })
            .collect();
        check_bill(two_keys);
        // The largest difference from the smallest key (0x100) has a zero
        // low digit; the OR of all differences (0x101) does not.
        let three_keys: Vec<u32> = (0..5000).map(|i| [0x100, 0, 1][i % 3]).collect();
        check_bill(three_keys);
    }

    /// `distinct` keys spread over the key space, each repeated in one run so
    /// the first records hold few distinct keys, filling `n` records.
    fn runs_of_keys(n: usize, distinct: usize) -> Vec<u32> {
        (0..n)
            .map(|i| sim::SplitMix64::mix((i * distinct / n) as u64) as u32)
            .collect()
    }

    #[test]
    fn counting_path_stops_at_half_the_slots() {
        let n = 1 << 16;
        let limit = count_slots(n) / 2;
        assert_eq!(limit, 2048);
        let mut at = runs_of_keys(n, limit);
        let mut expect = at.clone();
        expect.sort_unstable();
        let work = counting_sort(&mut at).expect("exactly at the limit counts");
        assert_eq!(at, expect);
        assert_eq!(work, expected_radix_work(&expect));

        let over = runs_of_keys(n, limit + 1);
        let mut copy = over.clone();
        assert!(counting_sort(&mut copy).is_none(), "one key over aborts");
        assert_eq!(copy, over, "an abort leaves the chunk untouched");
        check_bill(over);
    }

    #[test]
    fn counting_path_aborts_on_distinct_prefix_or_suffix() {
        let mut rng = Pcg64::new(17);
        let n = 1 << 16;
        assert!(COUNT_PREFIX_DISTINCT < count_slots(n) / 2);
        // One key over the screen's limit among the first `COUNT_PREFIX`
        // records: abort early, even though the whole chunk has few enough
        // for the table.
        let over = COUNT_PREFIX_DISTINCT + 1;
        let mut early: Vec<u32> = (0..n).map(|i| (i % over) as u32).collect();
        assert!(!few_distinct_prefix(&early[..COUNT_PREFIX]));
        let copy = early.clone();
        assert!(counting_sort(&mut early).is_none());
        assert_eq!(early, copy, "an abort leaves the chunk untouched");
        check_bill(early);
        // Exactly at the limit the screen passes and the chunk is counted.
        let mut at: Vec<u32> = (0..n).map(|i| (i % COUNT_PREFIX_DISTINCT) as u32).collect();
        assert!(few_distinct_prefix(&at[..COUNT_PREFIX]));
        let mut expect = at.clone();
        expect.sort_unstable();
        let work = counting_sort(&mut at).expect("exactly at the screen's limit counts");
        assert_eq!(at, expect);
        assert_eq!(work, expected_radix_work(&expect));
        // A few keys for most of the chunk, then distinct ones: abort late.
        let mut late: Vec<u32> = (0..n)
            .map(|i| {
                if i < n - 4096 {
                    (i % 4) as u32
                } else {
                    rng.next_u32()
                }
            })
            .collect();
        let copy = late.clone();
        assert!(counting_sort(&mut late).is_none());
        assert_eq!(late, copy);
        check_bill(late);
    }

    /// Node layouts of the benchmark's loaded cluster: perf 1,1,4,4 and
    /// n = 2²⁴ padded to Equation 2's granule (lcm 4 · Σ perf 10 = 40).
    fn p4_layouts() -> Vec<Layout> {
        let n = (1u64 << 24).div_ceil(40) * 40;
        Layout::cluster(&[n / 10, n / 10, 4 * n / 10, 4 * n / 10])
    }

    #[test]
    fn screen_admits_duplicate_heavy_node_blocks_only() {
        for seed in [7, 11] {
            for bench in Benchmark::ALL {
                let counted = matches!(bench, Benchmark::ZipfDuplicates | Benchmark::Zero);
                for layout in p4_layouts() {
                    // The first records of a block do not depend on its
                    // length, except bucket-sorted's slab `j·p/len`, which
                    // stays 0 for `j < COUNT_PREFIX` at this length too.
                    let len = (COUNT_PREFIX * layout.p) as u64;
                    let head = generate_block(bench, seed, Layout { len, ..layout });
                    let prefix = &head[..COUNT_PREFIX];
                    assert_eq!(
                        few_distinct_prefix(prefix),
                        counted,
                        "{bench}, seed {seed}, node {}",
                        layout.node
                    );
                }
            }
        }
    }

    /// `(Σ k, Σ k²)` over the keys, exact.
    fn power_sums(data: &[u32]) -> (u128, u128) {
        data.iter().fold((0, 0), |(s1, s2), &k| {
            let k = u128::from(k);
            (s1 + k, s2 + k * k)
        })
    }

    #[test]
    fn every_zipf_chunk_is_counted() {
        let mut chunks = 0;
        for layout in p4_layouts() {
            let block = generate_block(Benchmark::ZipfDuplicates, 11, layout);
            // Run formation's chunks on the loaded cluster (M = 2²⁰).
            for chunk in block.chunks(1 << 20) {
                let mut data = chunk.to_vec();
                assert!(counting_sort(&mut data).is_some(), "node {}", layout.node);
                // Sorted, with the input's power sums: a
                // reference sort of every chunk would take seconds in debug.
                assert!(data.is_sorted(), "node {}", layout.node);
                assert_eq!(power_sums(&data), power_sums(chunk), "node {}", layout.node);
                chunks += 1;
            }
        }
        assert_eq!(chunks, 18);
    }

    #[test]
    fn duplicate_heavy_input_is_cheap() {
        // All-equal keys: every digit pass is trivial — only the histogram
        // pass remains.
        let work = check_matches_reference(vec![42u32; 1000]);
        assert_eq!(work.key_ops, 1000);
        assert_eq!(work.comparisons, 0);
    }

    #[test]
    fn comparison_kernel_counts_estimate() {
        let mut data: Vec<u32> = (0..1024).rev().collect();
        let work = sort_chunk(&mut data, SortKernel::Comparison);
        assert_eq!(work.comparisons, incore_sort_comparisons(1024));
        assert_eq!(work.key_ops, 0);
        assert!(data.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn kernel_parse_roundtrip() {
        for k in [SortKernel::Comparison, SortKernel::Radix] {
            assert_eq!(SortKernel::parse(k.name()), Some(k));
        }
        assert_eq!(SortKernel::parse("bogus"), None);
        assert_eq!(SortKernel::default(), SortKernel::Radix);
        assert!(SortKernel::Radix.key_based::<u32>());
        assert!(!SortKernel::Comparison.key_based::<u32>());
    }

    #[test]
    fn work_is_deterministic() {
        let mut rng = Pcg64::new(12);
        let data: Vec<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        let (mut a, mut b) = (data.clone(), data);
        assert_eq!(
            sort_chunk(&mut a, SortKernel::Radix),
            sort_chunk(&mut b, SortKernel::Radix)
        );
    }
}
