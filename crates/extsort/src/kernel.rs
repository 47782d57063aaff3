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
//!     are used, or when more than 128 of the first 256 records are
//!     distinct (checked before the full table is allocated). Otherwise the
//!     distinct keys are sorted and each record is written out repeated by
//!     its count.
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
//! * [`SortKernel::Ips4o`] — in-place parallel-style super-scalar sample
//!   sort (the sequential core of ips⁴o): branchless classification into
//!   up to 256 buckets via an implicit splitter search tree, per-bucket
//!   staging buffers flushed block-at-a-time into the already-consumed
//!   prefix, an in-place block permutation, and recursion with an
//!   insertion-sort base case. Needs only O(k·B) extra memory (drawn from
//!   a shared [`pdm::BufferPool`]) instead of the radix kernel's O(n)
//!   scratch copy. Priced like radix: two key passes per recursion level.
//!
//! All three kernels produce **byte-identical** output: every
//! [`pdm::Record`] has a total `Ord`, so equal records are bitwise equal
//! and any correct sort yields the same byte sequence. Records whose key is
//! not a total order ([`pdm::Record::KEY_IS_TOTAL`] `== false`, e.g.
//! [`pdm::record::KeyPayload`]) are never counted, and get a cleanup pass
//! that finishes equal-key groups with the full `Ord`. Records without a
//! usable key fall back to the comparison path. The differential tests in
//! `tests/kernel_differential.rs` enforce byte identity across kernels.

use pdm::{BufferPool, Record};

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
    /// Branchless in-place sample sort on `sort_key()` — the cache-friendly
    /// alternative fast path with O(k·B) extra memory.
    Ips4o,
}

impl SortKernel {
    /// Parses a CLI spelling (`comparison` | `radix` | `ips4o`).
    pub fn parse(s: &str) -> Option<SortKernel> {
        match s {
            "comparison" => Some(SortKernel::Comparison),
            "radix" => Some(SortKernel::Radix),
            "ips4o" => Some(SortKernel::Ips4o),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            SortKernel::Comparison => "comparison",
            SortKernel::Radix => "radix",
            SortKernel::Ips4o => "ips4o",
        }
    }

    /// Whether this kernel sorts type `R` by its cached key (and therefore
    /// whether tournament selects over `R` should be priced as key ops).
    pub fn key_based<R: Record>(&self) -> bool {
        matches!(self, SortKernel::Radix | SortKernel::Ips4o) && R::HAS_SORT_KEY
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

/// Below this length the ips4o kernel insertion-sorts: sampling, tree
/// building and block bookkeeping dwarf the sort itself on tiny inputs.
pub const IPS4O_BASE_CUTOFF: usize = 64;

/// Buckets at or below this record count are finished with the LSD radix
/// base case instead of further partitioning levels. 2¹⁶ 4-byte records is
/// 256 KiB — the bucket and its radix scratch stay L2-resident, which is
/// the whole point of ips4o's partitioning: one cache-aware classify +
/// permute level turns a memory-bound sort into cache-sized base sorts.
pub const IPS4O_RADIX_CUTOFF: usize = 1 << 16;

/// Records classified per batch in the ips4o scan: the splitter-tree
/// descent is a serial dependency chain per record, so classifying a small
/// batch into a local index array first lets independent chains overlap in
/// the pipeline before the (cache-random) bucket stores happen.
const IPS4O_CLASSIFY_BATCH: usize = 16;

/// Records per ips4o staging block: bucket buffers fill to this size before
/// being flushed into the consumed prefix, and the in-place permutation
/// moves blocks of exactly this many records.
pub const IPS4O_BLOCK: usize = 128;

/// Upper bound on ips4o buckets per recursion level (a power of two; the
/// implicit search tree then classifies with `log₂ k` branch-free steps).
pub const IPS4O_MAX_BUCKETS: usize = 256;

/// Sorts `data` in-core with the chosen kernel and returns the counted
/// work. The result is byte-identical to `data.sort_unstable()` for every
/// kernel (total `Ord` ⇒ equal records are bitwise equal).
pub fn sort_chunk<R: Record>(data: &mut [R], kernel: SortKernel) -> KernelWork {
    sort_chunk_pooled(data, kernel, None)
}

/// [`sort_chunk`] with an optional shared [`BufferPool`]: kernels that
/// stage through scratch blocks (ips4o) draw them from `pool` instead of
/// allocating fresh, so repeated chunk sorts recycle the same memory.
pub fn sort_chunk_pooled<R: Record>(
    data: &mut [R],
    kernel: SortKernel,
    pool: Option<&BufferPool>,
) -> KernelWork {
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
        SortKernel::Ips4o => {
            if !R::HAS_SORT_KEY || R::view_bytes(&data[..0]).is_none() {
                // No usable key, or the record has no in-place byte view
                // (big-endian target): fall back to the reference path.
                comparison_sort(data)
            } else if data.len() <= IPS4O_BASE_CUTOFF {
                KernelWork {
                    comparisons: insertion_sort(data),
                    key_ops: 0,
                }
            } else {
                ips4o_sort(data, pool)
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
/// before it allocates the full table.
const COUNT_PREFIX: usize = 256;
const COUNT_PREFIX_DISTINCT: usize = 128;

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
/// [`COUNT_PREFIX_DISTINCT`] among the first [`COUNT_PREFIX`] records, or
/// more than half of [`count_slots`] in all.
///
/// Bills what the LSD path would: the nontrivial digits are those where
/// some key differs from the smallest, the same test as the histograms'.
fn counting_sort<R: Record>(data: &mut [R]) -> Option<KernelWork> {
    debug_assert!(R::KEY_IS_TOTAL);
    let n = data.len();
    let fill = *data.first()?;
    // The small table screens out chunks of mostly distinct keys before
    // the full table is allocated.
    let mut prefix = KeyCounts::new(2 * COUNT_PREFIX_DISTINCT, COUNT_PREFIX_DISTINCT, fill);
    if !data[..n.min(COUNT_PREFIX)].iter().all(|&r| prefix.add(r)) {
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

// ---------------------------------------------------------------------------
// ips4o: in-place super-scalar sample sort (sequential core).
//
// One recursion level runs four phases over a slice of `n` records:
//
// 1. **Sample & tree.** A deterministic stride sample is key-sorted, its
//    distinct splitters padded to `k-1` entries (k a power of two) and laid
//    out as an implicit binary search tree, so classification is `log₂ k`
//    iterations of `i = 2i + (key > tree[i])` — branch-free.
// 2. **Classify & stage.** A single left-to-right scan classifies every
//    record into one of `k` byte buffers of `IPS4O_BLOCK` records. A full
//    buffer flushes as one block to the write cursor `w`; because at least
//    one full buffer's worth of records is always pending, `w + B ≤ read`
//    and the flush only overwrites already-consumed records.
// 3. **Block permutation.** Flushed blocks are pure (one bucket each).
//    Cycle-following moves each block to the next aligned slot inside its
//    bucket's final range `[dᵢ, eᵢ)`; at most one block per bucket does not
//    fit an interior slot (`⌊eᵢ/B⌋ - ⌈dᵢ/B⌉ ≥ fᵢ - 1`) and is parked in an
//    overflow buffer.
// 4. **Cleanup.** The head gap `[dᵢ, ⌈dᵢ/B⌉·B)`, the tail gap after the
//    last placed block, the overflow block and the partial buffer balance
//    exactly; the gaps are filled and the level is done.
//
// Buckets then recurse until they fit in cache (`IPS4O_RADIX_CUTOFF`),
// where the LSD radix base case finishes them with L2-resident passes —
// partitioning exists to make the base sorts cache-sized, not to replace
// them. Equal-key buckets make no progress and drop to the comparison
// path, which also finishes `!KEY_IS_TOTAL` records with the full `Ord` —
// so no separate equal-key cleanup pass is needed.
// ---------------------------------------------------------------------------

/// Scratch-block allocator for one ips4o invocation: blocks come from the
/// shared [`BufferPool`] when one is supplied and are recycled across
/// recursion levels either way.
struct Ips4oScratch<'p> {
    pool: Option<&'p BufferPool>,
    free: Vec<Vec<u8>>,
}

impl<'p> Ips4oScratch<'p> {
    fn new(pool: Option<&'p BufferPool>) -> Self {
        Ips4oScratch {
            pool,
            free: Vec::new(),
        }
    }

    /// A cleared buffer with at least `bytes` capacity.
    fn take(&mut self, bytes: usize) -> Vec<u8> {
        if let Some(mut b) = self.free.pop() {
            b.clear();
            b.reserve(bytes);
            return b;
        }
        match self.pool {
            Some(p) => p.take(bytes),
            None => Vec::with_capacity(bytes),
        }
    }

    fn put(&mut self, buf: Vec<u8>) {
        self.free.push(buf);
    }
}

impl Drop for Ips4oScratch<'_> {
    fn drop(&mut self) {
        if let Some(p) = self.pool {
            for b in self.free.drain(..) {
                p.put(b);
            }
        }
    }
}

/// The implicit splitter search tree plus the classification step count.
struct SplitterTree {
    /// 1-indexed heap layout; `tree[0]` unused.
    tree: Vec<u64>,
    /// Number of buckets `k` (power of two).
    k: usize,
    /// `log₂ k` — classification iterations per record.
    log_k: u32,
}

impl SplitterTree {
    /// Builds the tree from `splitters` (sorted, deduplicated, non-empty),
    /// padding to `k - 1` entries by repeating the largest splitter. The
    /// padded duplicates create empty buckets, never wrong ones.
    fn build(splitters: &[u64], max_buckets: usize) -> SplitterTree {
        debug_assert!(!splitters.is_empty());
        let k = (splitters.len() + 1)
            .next_power_of_two()
            .min(max_buckets)
            .max(2);
        let mut padded = Vec::with_capacity(k - 1);
        padded.extend_from_slice(&splitters[..splitters.len().min(k - 1)]);
        while padded.len() < k - 1 {
            padded.push(*padded.last().expect("non-empty splitters"));
        }
        let mut tree = vec![0u64; k];
        fill_tree(&mut tree, &padded, 1, 0, k - 1);
        SplitterTree {
            tree,
            k,
            log_k: k.trailing_zeros(),
        }
    }

    /// Bucket index for `key`: branch-free descent, `key > tree[i]` goes
    /// right. Bucket `b` holds keys in `(splitter[b-1], splitter[b]]`, so
    /// equal keys always land in the same bucket.
    #[inline]
    fn classify(&self, key: u64) -> usize {
        let mut i = 1usize;
        for _ in 0..self.log_k {
            i = 2 * i + (key > self.tree[i]) as usize;
        }
        i - self.k
    }
}

/// Lays `splitters[lo..hi]`'s median at `node`, recursing into the halves —
/// the in-order traversal of the heap reads back the sorted splitters.
fn fill_tree(tree: &mut [u64], splitters: &[u64], node: usize, lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let mid = lo + (hi - lo) / 2;
    tree[node] = splitters[mid];
    fill_tree(tree, splitters, 2 * node, lo, mid);
    fill_tree(tree, splitters, 2 * node + 1, mid + 1, hi);
}

/// The native byte view of a record slice. Only called on types that passed
/// the `view_bytes` gate in [`sort_chunk_pooled`].
#[inline]
fn rec_bytes<R: Record>(recs: &[R]) -> &[u8] {
    R::view_bytes(recs).expect("record type gated as byte-viewable")
}

fn ips4o_sort<R: Record>(data: &mut [R], pool: Option<&BufferPool>) -> KernelWork {
    // Depth budget ~2·log₂ n: adversarial splitter luck degrades to the
    // comparison path instead of deep recursion.
    let depth = 2 * (usize::BITS - data.len().leading_zeros());
    let mut scratch = Ips4oScratch::new(pool);
    let mut work = KernelWork::default();
    ips4o_rec(data, depth, &mut scratch, &mut work);
    work
}

fn ips4o_rec<R: Record>(
    data: &mut [R],
    depth: u32,
    scratch: &mut Ips4oScratch<'_>,
    work: &mut KernelWork,
) {
    let n = data.len();
    if n <= IPS4O_BASE_CUTOFF {
        work.comparisons += insertion_sort(data);
        return;
    }
    if n <= IPS4O_RADIX_CUTOFF {
        // Cache-sized base case: the bucket fits in L2, where the LSD
        // radix passes are fastest. Further partitioning levels would cost
        // more classify+move passes than they save.
        *work = work.plus(radix_sort(data));
        return;
    }
    if depth == 0 {
        *work = work.plus(comparison_sort(data));
        return;
    }

    // Phase 1: deterministic stride sample, sorted and deduplicated.
    let target_k = (n / (2 * IPS4O_BLOCK))
        .next_power_of_two()
        .clamp(2, IPS4O_MAX_BUCKETS);
    let sample_size = (2 * target_k - 1).min(n);
    let stride = n / sample_size;
    let mut sample: Vec<u64> = (0..sample_size)
        .map(|i| data[i * stride].sort_key())
        .collect();
    sample.sort_unstable();
    work.comparisons += incore_sort_comparisons(sample_size as u64);
    let mut splitters: Vec<u64> = Vec::with_capacity(target_k - 1);
    for i in 0..target_k - 1 {
        let s = sample[(i + 1) * sample_size / target_k];
        if splitters.last() != Some(&s) {
            splitters.push(s);
        }
    }
    if splitters.is_empty() {
        // Whole sample is one key: classification cannot make progress.
        *work = work.plus(comparison_sort(data));
        return;
    }
    let tree = SplitterTree::build(&splitters, IPS4O_MAX_BUCKETS);
    let k = tree.k;
    let rs = R::SIZE;
    let block_bytes = IPS4O_BLOCK * rs;

    // Phase 2: classify into per-bucket staging buffers; full buffers
    // flush as blocks to the consumed prefix at `w`.
    let mut bufs: Vec<Vec<u8>> = (0..k).map(|_| scratch.take(block_bytes)).collect();
    let mut counts = vec![0usize; k];
    let mut w = 0usize;
    let mut idx = [0usize; IPS4O_CLASSIFY_BATCH];
    let mut i = 0usize;
    while i < n {
        // Classify a batch first: the tree descents are independent across
        // records, so they overlap; the bucket stores follow.
        let m = IPS4O_CLASSIFY_BATCH.min(n - i);
        for (j, slot) in idx[..m].iter_mut().enumerate() {
            *slot = tree.classify(data[i + j].sort_key());
        }
        for (j, &b) in idx[..m].iter().enumerate() {
            counts[b] += 1;
            let buf = &mut bufs[b];
            buf.extend_from_slice(rec_bytes(std::slice::from_ref(&data[i + j])));
            if buf.len() == block_bytes {
                // ≥ B records are staged, so w ≤ (i+j+1) - B: this only
                // overwrites records already consumed by the scan.
                R::decode_slice_into(buf, &mut data[w..w + IPS4O_BLOCK]);
                buf.clear();
                w += IPS4O_BLOCK;
            }
        }
        i += m;
    }
    work.key_ops += n as u64; // classification pass

    // Bucket geometry. `d[b]..e[b]` is bucket b's final range; its flushed
    // blocks go to the aligned slots wholly inside it. At most one block
    // per bucket overflows: ⌊e/B⌋ - ⌈d/B⌉ > (e - d - 2B)/B ≥ f - 2.
    let mut d = vec![0usize; k + 1];
    for b in 0..k {
        d[b + 1] = d[b] + counts[b];
    }
    let mut slot_next = vec![0usize; k]; // next slot, block units
    let mut slots_left = vec![0usize; k]; // interior slots granted
    let mut placed = vec![0usize; k]; // blocks actually placed
    for b in 0..k {
        let start = d[b].div_ceil(IPS4O_BLOCK);
        let end = d[b + 1] / IPS4O_BLOCK;
        let f = (counts[b] - bufs[b].len() / rs) / IPS4O_BLOCK;
        let avail = end.saturating_sub(start);
        debug_assert!(f <= avail + 1, "more than one overflow block");
        slot_next[b] = start;
        slots_left[b] = f.min(avail);
        placed[b] = f.min(avail);
    }

    // Phase 3: cycle-following block permutation over the flushed prefix.
    let w_blocks = w / IPS4O_BLOCK;
    let mut processed = vec![false; w_blocks];
    let mut overflow: Vec<Option<Vec<u8>>> = (0..k).map(|_| None).collect();
    let mut cur = scratch.take(block_bytes);
    let mut nxt = scratch.take(block_bytes);
    for start in 0..w_blocks {
        if processed[start] {
            continue;
        }
        let pos = start * IPS4O_BLOCK;
        cur.clear();
        cur.extend_from_slice(rec_bytes(&data[pos..pos + IPS4O_BLOCK]));
        processed[start] = true;
        let mut b = tree.classify(data[pos].sort_key());
        loop {
            if slots_left[b] == 0 {
                // The one block that does not fit an interior slot.
                debug_assert!(overflow[b].is_none());
                overflow[b] = Some(std::mem::replace(&mut cur, scratch.take(block_bytes)));
                break;
            }
            let t = slot_next[b];
            slot_next[b] += 1;
            slots_left[b] -= 1;
            let dst = t * IPS4O_BLOCK;
            if t < w_blocks && !processed[t] {
                // Slot holds an unmoved block: displace it, keep chaining.
                nxt.clear();
                nxt.extend_from_slice(rec_bytes(&data[dst..dst + IPS4O_BLOCK]));
                processed[t] = true;
                let nb = tree.classify(data[dst].sort_key());
                R::decode_slice_into(&cur, &mut data[dst..dst + IPS4O_BLOCK]);
                std::mem::swap(&mut cur, &mut nxt);
                b = nb;
            } else {
                // Beyond the flushed prefix or already lifted: slot is free.
                R::decode_slice_into(&cur, &mut data[dst..dst + IPS4O_BLOCK]);
                break;
            }
        }
    }
    scratch.put(cur);
    scratch.put(nxt);

    // Phase 4: fill each bucket's head and tail gaps from its overflow
    // block and partial buffer — the byte counts balance exactly.
    for b in 0..k {
        if counts[b] == 0 {
            continue;
        }
        let (lo, hi) = (d[b], d[b + 1]);
        let mut fill = match overflow[b].take() {
            Some(mut ofl) => {
                ofl.extend_from_slice(&bufs[b]);
                ofl
            }
            None => std::mem::take(&mut bufs[b]),
        };
        if placed[b] == 0 {
            debug_assert_eq!(fill.len(), (hi - lo) * rs);
            R::decode_slice_into(&fill, &mut data[lo..hi]);
        } else {
            let slot_start = d[b].div_ceil(IPS4O_BLOCK) * IPS4O_BLOCK;
            let head = slot_start - lo;
            let written_end = slot_start + placed[b] * IPS4O_BLOCK;
            debug_assert_eq!(head * rs + (hi - written_end) * rs, fill.len());
            R::decode_slice_into(&fill[..head * rs], &mut data[lo..slot_start]);
            R::decode_slice_into(&fill[head * rs..], &mut data[written_end..hi]);
        }
        fill.clear();
        scratch.put(fill);
    }
    for buf in bufs {
        scratch.put(buf);
    }
    work.key_ops += n as u64; // permutation + cleanup move every record once

    // Recurse per bucket; a bucket that absorbed everything means the
    // splitters made no progress (e.g. all keys equal) — finish it with
    // the comparison path, which also orders `!KEY_IS_TOTAL` ties fully.
    for b in 0..k {
        let (lo, hi) = (d[b], d[b + 1]);
        if hi - lo <= 1 {
            continue;
        }
        if hi - lo == n {
            *work = work.plus(comparison_sort(data));
            return;
        }
        ips4o_rec(&mut data[lo..hi], depth - 1, scratch, work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::record::KeyPayload;
    use sim::rng::{Pcg64, Rng};

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
        // 129 distinct keys among the first 256 records: abort early, even
        // though the whole chunk has few enough for the table.
        let mut early: Vec<u32> = (0..n).map(|i| (i % 129) as u32).collect();
        let copy = early.clone();
        assert!(counting_sort(&mut early).is_none());
        assert_eq!(early, copy);
        check_bill(early);
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
        for k in [SortKernel::Comparison, SortKernel::Radix, SortKernel::Ips4o] {
            assert_eq!(SortKernel::parse(k.name()), Some(k));
        }
        assert_eq!(SortKernel::parse("bogus"), None);
        assert_eq!(SortKernel::default(), SortKernel::Radix);
        assert!(SortKernel::Radix.key_based::<u32>());
        assert!(SortKernel::Ips4o.key_based::<u32>());
        assert!(!SortKernel::Comparison.key_based::<u32>());
    }

    #[test]
    fn ips4o_sorts_u32_u64() {
        // Above IPS4O_RADIX_CUTOFF so the partitioning level really runs.
        let n = 2 * IPS4O_RADIX_CUTOFF + 1234;
        let mut rng = Pcg64::new(20);
        let w = check_kernel(
            (0..n).map(|_| rng.next_u32()).collect::<Vec<_>>(),
            SortKernel::Ips4o,
        );
        assert!(
            w.key_ops > 0,
            "large uniform input must take the ips4o path"
        );
        check_kernel(
            (0..n).map(|_| rng.next_u64()).collect::<Vec<_>>(),
            SortKernel::Ips4o,
        );
    }

    #[test]
    fn ips4o_sorts_signed_and_small() {
        let mut rng = Pcg64::new(21);
        check_kernel(
            (0..3000).map(|_| rng.next_u32() as i32).collect::<Vec<_>>(),
            SortKernel::Ips4o,
        );
        check_kernel(vec![i64::MIN, i64::MAX, -1, 0, 1], SortKernel::Ips4o);
        for n in [0usize, 1, 2, IPS4O_BASE_CUTOFF, IPS4O_BASE_CUTOFF + 1] {
            check_kernel(
                (0..n).map(|_| rng.next_u32()).collect::<Vec<_>>(),
                SortKernel::Ips4o,
            );
        }
    }

    #[test]
    fn ips4o_handles_adversarial_shapes() {
        // Sizes above IPS4O_RADIX_CUTOFF: these shapes must survive the
        // partitioning level itself, not just the radix base case.
        let n = (2 * IPS4O_RADIX_CUTOFF) as u32;
        let mut rng = Pcg64::new(22);
        // All equal: no splitter progress, must fall to the comparison path.
        check_kernel(vec![7u32; n as usize], SortKernel::Ips4o);
        // Sorted / reversed / sawtooth / few distinct values.
        check_kernel((0..n).collect::<Vec<_>>(), SortKernel::Ips4o);
        check_kernel((0..n).rev().collect::<Vec<_>>(), SortKernel::Ips4o);
        check_kernel(
            (0..n).map(|i| i % 257).collect::<Vec<_>>(),
            SortKernel::Ips4o,
        );
        check_kernel(
            (0..n).map(|_| rng.next_u64() % 4).collect::<Vec<_>>(),
            SortKernel::Ips4o,
        );
        // Exactly block-aligned and one-off-block-aligned lengths.
        for n in [
            IPS4O_BLOCK * 1024,
            IPS4O_BLOCK * 1024 + 1,
            IPS4O_BLOCK * 1024 - 1,
        ] {
            check_kernel(
                (0..n).map(|_| rng.next_u32()).collect::<Vec<_>>(),
                SortKernel::Ips4o,
            );
        }
    }

    #[test]
    fn ips4o_sorts_keypayload_with_duplicate_keys() {
        // Non-total key: payload ties must come out in full-Ord order even
        // though the classifier only sees the key.
        let mut rng = Pcg64::new(23);
        let data: Vec<KeyPayload> = (0..2 * IPS4O_RADIX_CUTOFF)
            .map(|_| KeyPayload::new(rng.next_u64() % 16, rng.next_u64()))
            .collect();
        let work = check_kernel(data, SortKernel::Ips4o);
        assert!(work.comparisons > 0, "equal-key buckets must full-Ord sort");
    }

    #[test]
    fn ips4o_pooled_recycles_buffers() {
        let mut rng = Pcg64::new(24);
        let pool = pdm::BufferPool::new(64);
        for _ in 0..3 {
            let mut data: Vec<u32> = (0..2 * IPS4O_RADIX_CUTOFF)
                .map(|_| rng.next_u32())
                .collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            sort_chunk_pooled(&mut data, SortKernel::Ips4o, Some(&pool));
            assert_eq!(data, expect);
        }
        assert!(pool.hits() > 0, "later passes must reuse pooled blocks");
        assert!(pool.idle() > 0, "scratch must return blocks to the pool");
    }

    #[test]
    fn ips4o_work_is_deterministic() {
        let mut rng = Pcg64::new(25);
        let data: Vec<u64> = (0..2 * IPS4O_RADIX_CUTOFF)
            .map(|_| rng.next_u64())
            .collect();
        let (mut a, mut b) = (data.clone(), data);
        let pool = pdm::BufferPool::new(16);
        assert_eq!(
            sort_chunk(&mut a, SortKernel::Ips4o),
            sort_chunk_pooled(&mut b, SortKernel::Ips4o, Some(&pool)),
            "pooling must not change counted work"
        );
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
