//! Multi-level (√p-group) splitter selection and two-level data routing.
//!
//! The flat path has node 0 gather and sort `(Σperf)²` pivot candidates —
//! the O(p²) centralized bottleneck the scale sweep measured at 67% of the
//! makespan by p = 256. This module replaces it with the AMS-sort-style
//! two-level scheme (*Practical Massively Parallel Sorting*, Axtmann et
//! al.), kept perf-vector-weighted so the paper's heterogeneous expansion
//! bound survives:
//!
//! * **Level 1** — nodes form `g = ⌈√p⌉` contiguous groups. Each member
//!   first compresses its own sorted regular sample into
//!   `OVERSAMPLE·perf_i` weighted candidates: candidate `t` is the sample
//!   record at regular position `pos_t` and carries weight
//!   `pos_{t+1} − pos_t` — the number of sample records it stands for —
//!   plus the rank it originated from. Budgets proportional to `perf_i`
//!   make every segment weigh `≈ Σperf/OVERSAMPLE` regardless of node
//!   speed, so the pivot rank error stays `≤ 1/OVERSAMPLE` of the
//!   *slowest* node's share. The group leader then merges its members'
//!   candidate lists — `O(√p·OVERSAMPLE)` candidates, never the
//!   `(Σperf)²/g`-record group sample — billed as a `group_size`-way
//!   merge of sorted runs, at the key-op rate under key-based kernels.
//! * **Level 2** — the `g` leaders gather their candidates at the root
//!   leader, which merges `OVERSAMPLE·Σperf = O(p·OVERSAMPLE)` candidates
//!   by `(key, origin)` and selects the `p − 1` pivots at the *weighted*
//!   cumulative-performance ranks (the same `cum_perf(j)·Σperf + p/2`
//!   targets as the flat selector, scaled into cumulative candidate
//!   weight). Pivots broadcast back down the two-level tree:
//!   root → leaders → members.
//!
//! Each pivot carries its **origin rank** so partitioning can tie-break
//! duplicates implicitly à la *Robust Massively Parallel Sorting*: a
//! record equal to pivot `j` routes left iff its node rank `≤` the
//! pivot's origin rank. Duplicate floods thus split deterministically at
//! node granularity instead of all landing on one destination.
//!
//! [`two_level_exchange`] replaces the p-way all-to-all of the
//! redistribution phase with intra-group + inter-group routing: every
//! payload first hops to the in-group relay responsible for its
//! destination group, then travels to the destination in one combined
//! message per (relay, destination) pair. A node sends and receives
//! `O(√p)` messages instead of `p − 1`, at the price of moving the data
//! twice — the classic AMS trade, and the reason no node ever faces `p`
//! simultaneous first messages at p = 1024.

use cluster::charge::Work;
use cluster::{NodeCtx, Tag};
use extsort::SortKernel;
use pdm::{record, Record};

use crate::perf::PerfVector;

/// Level-1 sample gather: members → group leader.
const TAG_L1_GATHER: Tag = Tag(0x0200);
/// Level-2 candidate gather: leaders → root leader.
const TAG_L2_GATHER: Tag = Tag(0x0201);
/// Level-2 pivot broadcast: root leader → leaders.
const TAG_L2_BCAST: Tag = Tag(0x0202);
/// Level-1 pivot broadcast: leader → members.
const TAG_L1_BCAST: Tag = Tag(0x0203);
/// Two-level routing, stage 1: node → in-group relay.
const TAG_ROUTE_1: Tag = Tag(0x0204);
/// Two-level routing, stage 2: relay → destination.
const TAG_ROUTE_2: Tag = Tag(0x0205);

/// Per-perf-unit candidate budget: a member distills its sample into
/// `OVERSAMPLE·perf_i` weighted candidates before the level-1 gather, so
/// a leader merges `O(√p·OVERSAMPLE)` candidates and the root
/// `OVERSAMPLE·Σperf` — never the `(Σperf)²` flat sample.
pub const OVERSAMPLE: usize = 8;

/// How pivot candidates travel from the nodes to the selecting root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitterStrategy {
    /// The paper's centralized path: gather every sample at node 0, sort
    /// `(Σperf)²` candidates there. O(p²) at the root.
    #[default]
    Flat,
    /// The two-level √p-group path of this module. `levels` counts the
    /// selection levels including the root (only `2` is implemented —
    /// deeper recursion is not needed below p ≈ 10⁶).
    Grouped {
        /// Selection levels; must be 2.
        levels: u32,
    },
}

impl SplitterStrategy {
    /// The two-level default (`levels = 2`).
    pub fn grouped() -> Self {
        SplitterStrategy::Grouped { levels: 2 }
    }

    /// Is this the grouped path?
    pub fn is_grouped(&self) -> bool {
        matches!(self, SplitterStrategy::Grouped { .. })
    }
}

/// Contiguous, ceil-balanced grouping of `p` ranks into `⌈√p⌉` groups.
///
/// The first `p mod g` groups hold `⌈p/g⌉` ranks, the rest `⌊p/g⌋` — no
/// group ever exceeds the ceil-balanced size, and groups are contiguous
/// rank ranges so group membership is O(1) arithmetic on every node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupLayout {
    p: usize,
    g: usize,
}

impl GroupLayout {
    /// The √p layout for a `p`-node cluster.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "a cluster has at least one node");
        let g = (1..=p).find(|&g| g * g >= p).unwrap_or(p);
        GroupLayout { p, g }
    }

    /// Number of groups (`⌈√p⌉`).
    pub fn groups(&self) -> usize {
        self.g
    }

    /// Cluster size.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Ceil-balanced size bound: no group is larger than this.
    pub fn max_group_size(&self) -> usize {
        self.p.div_ceil(self.g)
    }

    /// First rank of group `gi` (also its leader).
    pub fn group_start(&self, gi: usize) -> usize {
        assert!(gi < self.g, "group {gi} out of {}", self.g);
        let big = self.p.div_ceil(self.g);
        let small = self.p / self.g;
        let n_big = self.p - small * self.g; // groups holding `big` ranks
        if gi < n_big {
            gi * big
        } else {
            n_big * big + (gi - n_big) * small
        }
    }

    /// Size of group `gi`.
    pub fn group_size(&self, gi: usize) -> usize {
        let big = self.p.div_ceil(self.g);
        let small = self.p / self.g;
        let n_big = self.p - small * self.g;
        if gi < n_big {
            big
        } else {
            small
        }
    }

    /// Which group `rank` belongs to.
    pub fn group_of(&self, rank: usize) -> usize {
        assert!(rank < self.p, "rank {rank} out of {}", self.p);
        let big = self.p.div_ceil(self.g);
        let small = self.p / self.g;
        let n_big = self.p - small * self.g;
        let split = n_big * big;
        if rank < split {
            rank / big
        } else {
            match (rank - split).checked_div(small) {
                Some(q) => n_big + q,
                // p < g never happens (g ≤ p), but keep the division safe.
                None => self.g - 1,
            }
        }
    }

    /// The global ranks of group `gi`, in ascending order.
    pub fn members(&self, gi: usize) -> Vec<usize> {
        let start = self.group_start(gi);
        (start..start + self.group_size(gi)).collect()
    }

    /// Leader (first rank) of group `gi`.
    pub fn leader(&self, gi: usize) -> usize {
        self.group_start(gi)
    }

    /// All group leaders, in group order. `leaders()[0]` is the root
    /// leader (rank 0), which performs the level-2 selection.
    pub fn leaders(&self) -> Vec<usize> {
        (0..self.g).map(|gi| self.leader(gi)).collect()
    }
}

/// Virtual-clock breakdown of one grouped selection, per node. The bench
/// sweep takes the per-stage max across nodes, so leader/root costs are
/// visible even though non-leaders idle through them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SplitTiming {
    /// Level 1: members ship samples to their group leader.
    pub sample_gather_secs: f64,
    /// Level 1: the leader sorts the group sample and compresses it into
    /// weighted candidates.
    pub leader_sort_secs: f64,
    /// Level 2: leaders exchange candidates with the root, the root
    /// selects, and the pivots broadcast back down both levels.
    pub boundary_exchange_secs: f64,
}

/// One weighted pivot candidate travelling leader → root.
#[derive(Debug, Clone, Copy)]
struct Candidate<R> {
    key: R,
    /// Global rank of the node whose sample produced this record — the
    /// tie-break coordinate.
    origin: u32,
    /// Group-sample records this candidate stands for (regular-position
    /// segment length); weights across all groups sum to the flat sample
    /// size, so cumulative weight ≈ flat sample rank.
    weight: u64,
}

fn encode_candidates<R: Record>(cands: &[Candidate<R>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + cands.len() * (R::SIZE + 12));
    out.extend((cands.len() as u64).to_le_bytes());
    let keys: Vec<R> = cands.iter().map(|c| c.key).collect();
    out.extend(record::encode_all(&keys));
    for c in cands {
        out.extend(c.origin.to_le_bytes());
    }
    for c in cands {
        out.extend(c.weight.to_le_bytes());
    }
    out
}

fn decode_candidates<R: Record>(bytes: &[u8]) -> Vec<Candidate<R>> {
    let n = u64::from_le_bytes(bytes[..8].try_into().expect("count")) as usize;
    let keys: Vec<R> = record::decode_all(&bytes[8..8 + n * R::SIZE]);
    let mut at = 8 + n * R::SIZE;
    let origins: Vec<u32> = (0..n)
        .map(|i| {
            u32::from_le_bytes(
                bytes[at + 4 * i..at + 4 * i + 4]
                    .try_into()
                    .expect("origin"),
            )
        })
        .collect();
    at += 4 * n;
    let weights: Vec<u64> = (0..n)
        .map(|i| {
            u64::from_le_bytes(
                bytes[at + 8 * i..at + 8 * i + 8]
                    .try_into()
                    .expect("weight"),
            )
        })
        .collect();
    keys.into_iter()
        .zip(origins)
        .zip(weights)
        .map(|((key, origin), weight)| Candidate {
            key,
            origin,
            weight,
        })
        .collect()
}

fn encode_pivots<R: Record>(pivots: &[R], origins: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pivots.len() * (R::SIZE + 4));
    out.extend((pivots.len() as u64).to_le_bytes());
    out.extend(record::encode_all(pivots));
    for o in origins {
        out.extend(o.to_le_bytes());
    }
    out
}

fn decode_pivots<R: Record>(bytes: &[u8]) -> (Vec<R>, Vec<u32>) {
    let n = u64::from_le_bytes(bytes[..8].try_into().expect("count")) as usize;
    let pivots: Vec<R> = record::decode_all(&bytes[8..8 + n * R::SIZE]);
    let at = 8 + n * R::SIZE;
    let origins: Vec<u32> = (0..n)
        .map(|i| {
            u32::from_le_bytes(
                bytes[at + 4 * i..at + 4 * i + 4]
                    .try_into()
                    .expect("origin"),
            )
        })
        .collect();
    (pivots, origins)
}

/// Work estimate for combining `n` candidates arriving as `runs`
/// pre-sorted lists: one tournament select per item at `⌈log₂ runs⌉`
/// comparisons each — the k-way-merge bill, not an `n·log n` sort,
/// because every input list is already ordered by `(key, origin)`.
/// The selects are billed like every merge's
/// ([`SortKernel::bill_selects`]): key ops under a key-based kernel —
/// mirroring how the flat path's root bills its radix sample sort.
fn merge_estimate<R: Record>(n: u64, runs: u64, kernel: SortKernel) -> Work {
    let log = if runs < 2 {
        1
    } else {
        (64 - (runs - 1).leading_zeros()) as u64
    };
    let selects = kernel.bill_selects::<R>(n * log);
    Work {
        comparisons: selects.comparisons,
        key_ops: selects.key_ops,
        moves: n,
    }
}

/// Compresses a sorted `(key, origin)` group sample into at most
/// `limit` weighted candidates at regular positions.
fn compress_sample<R: Record>(sample: &[(R, u32)], limit: usize) -> Vec<Candidate<R>> {
    let len = sample.len();
    if len == 0 {
        return Vec::new();
    }
    let c = limit.clamp(1, len);
    let positions: Vec<usize> = crate::sampling::regular_positions(len as u64, c as u64)
        .into_iter()
        .map(|q| q as usize)
        .collect();
    (0..positions.len())
        .map(|t| {
            let start = positions[t];
            let end = if t + 1 < positions.len() {
                positions[t + 1]
            } else {
                len
            };
            let (key, origin) = sample[start];
            Candidate {
                key,
                origin,
                weight: (end - start) as u64,
            }
        })
        .collect()
}

/// Runs the two-level splitter selection. Call on **every** node with the
/// node's sorted regular sample (drawn exactly as for the flat path) and
/// the in-core sort kernel, which decides whether merge selects bill as
/// comparisons or key ops. Returns the `p − 1` pivots, their origin ranks
/// (for tie-breaking; see [`take_equal_flags`]) and the per-stage timing
/// — identical pivots and origins on every node.
pub async fn grouped_select_pivots<R: Record>(
    ctx: &mut NodeCtx,
    perf: &PerfVector,
    sample: Vec<R>,
    kernel: SortKernel,
) -> (Vec<R>, Vec<u32>, SplitTiming) {
    let p = ctx.p;
    let rank = ctx.rank;
    if p == 1 {
        return (Vec::new(), Vec::new(), SplitTiming::default());
    }
    debug_assert!(
        sample.windows(2).all(|w| w[0] <= w[1]),
        "regular sample of sorted data must be sorted"
    );
    let layout = GroupLayout::new(p);
    let gi = layout.group_of(rank);
    let members = layout.members(gi);
    let leader = layout.leader(gi);
    let leaders = layout.leaders();
    let group_label = format!("g{gi}");

    // ---- Level 1: every member distills its sorted sample into
    // OVERSAMPLE·perf weighted candidates, then ships those to the
    // group leader. ----
    let t0 = ctx.charger.now().as_secs();
    let tagged: Vec<(R, u32)> = sample.into_iter().map(|r| (r, rank as u32)).collect();
    let mine = compress_sample(&tagged, OVERSAMPLE * perf.get(rank) as usize);
    ctx.charger.charge_work(Work::moves(mine.len() as u64));
    drop(tagged);
    ctx.set_comm_group(Some(&group_label));
    let gathered = ctx
        .gather_subset(&members, leader, encode_candidates(&mine), TAG_L1_GATHER)
        .await;
    let t1 = ctx.charger.now().as_secs();

    // ---- Level 1: the leader merges its members' candidate lists —
    // O(√p·OVERSAMPLE) candidates, each list already (key, origin)-
    // sorted, so the bill is a group_size-way merge, not a full sort. ----
    let candidates: Option<Vec<Candidate<R>>> = gathered.map(|payloads| {
        let mut cands: Vec<Candidate<R>> = payloads
            .iter()
            .flat_map(|bytes| decode_candidates::<R>(bytes))
            .collect();
        let est = merge_estimate::<R>(cands.len() as u64, members.len() as u64, kernel);
        ctx.charger
            .compute(est, || cands.sort_unstable_by_key(|c| (c.key, c.origin)));
        ctx.obs
            .counter_add("split.level1.candidates", cands.len() as u64);
        cands
    });
    let t2 = ctx.charger.now().as_secs();

    // ---- Level 2: leaders → root candidate gather, weighted selection,
    // broadcast back down both levels. ----
    let (pivots, origins) = if rank == leader {
        ctx.set_comm_group(Some("leaders"));
        let cands = candidates.expect("leader compressed its group sample");
        let root = leaders[0];
        let gathered = ctx
            .gather_subset(&leaders, root, encode_candidates(&cands), TAG_L2_GATHER)
            .await;
        let payload = if rank == root {
            let mut all: Vec<Candidate<R>> = gathered
                .expect("root gathers")
                .iter()
                .flat_map(|bytes| decode_candidates::<R>(bytes))
                .collect();
            let est = merge_estimate::<R>(all.len() as u64, leaders.len() as u64, kernel);
            ctx.charger
                .compute(est, || all.sort_unstable_by_key(|c| (c.key, c.origin)));
            ctx.obs
                .counter_add("split.level2.candidates", all.len() as u64);
            let (pv, og) = ctx
                .charger
                .compute(Work::comparisons(all.len() as u64 + p as u64), || {
                    select_weighted_pivots(&all, perf)
                });
            encode_pivots(&pv, &og)
        } else {
            Vec::new()
        };
        let payload = ctx
            .broadcast_subset(&leaders, root, payload, TAG_L2_BCAST)
            .await;
        ctx.set_comm_group(Some(&group_label));
        let payload = ctx
            .broadcast_subset(&members, leader, payload, TAG_L1_BCAST)
            .await;
        decode_pivots::<R>(&payload)
    } else {
        let payload = ctx
            .broadcast_subset(&members, leader, Vec::new(), TAG_L1_BCAST)
            .await;
        decode_pivots::<R>(&payload)
    };
    ctx.set_comm_group(None);
    let t3 = ctx.charger.now().as_secs();

    let timing = SplitTiming {
        sample_gather_secs: t1 - t0,
        leader_sort_secs: t2 - t1,
        boundary_exchange_secs: t3 - t2,
    };
    if ctx.obs.is_enabled() {
        ctx.obs
            .gauge_set("split.level1.gather_secs", timing.sample_gather_secs);
        ctx.obs
            .gauge_set("split.level1.sort_secs", timing.leader_sort_secs);
        ctx.obs
            .gauge_set("split.level2.exchange_secs", timing.boundary_exchange_secs);
    }
    debug_assert_eq!(pivots.len(), p - 1);
    (pivots, origins, timing)
}

/// Selects `p − 1` pivots from the root's sorted weighted candidates at
/// the flat selector's cumulative-performance ranks, scaled from the
/// ideal flat sample size `(Σperf)²` into cumulative candidate weight.
/// Candidates are sorted by `(key, origin)`, so consecutive targets give
/// lexicographically nondecreasing `(pivot, origin)` boundaries — the
/// monotonicity the tie-broken partition relies on.
fn select_weighted_pivots<R: Record>(
    sorted: &[Candidate<R>],
    perf: &PerfVector,
) -> (Vec<R>, Vec<u32>) {
    let p = perf.p();
    assert!(
        !sorted.is_empty(),
        "cannot pick pivots from an empty sample"
    );
    let total = perf.total();
    let ideal = (total as u128) * (total as u128);
    let w_total: u128 = sorted.iter().map(|c| c.weight as u128).sum();
    let mut pivots = Vec::with_capacity(p - 1);
    let mut origins = Vec::with_capacity(p - 1);
    // Targets are nondecreasing in j, so one forward walk serves all.
    let mut idx = 0usize;
    let mut cum: u128 = sorted[0].weight as u128;
    for j in 1..p {
        let ideal_rank = (perf.cumulative(j) * total + p as u64 / 2) as u128;
        let target = if w_total == ideal {
            ideal_rank
        } else {
            ideal_rank * w_total / ideal
        };
        // First candidate whose cumulative span covers `target`.
        while cum <= target && idx + 1 < sorted.len() {
            idx += 1;
            cum += sorted[idx].weight as u128;
        }
        pivots.push(sorted[idx].key);
        origins.push(sorted[idx].origin);
    }
    (pivots, origins)
}

/// Tie-break flags for this node: a record equal to pivot `j` routes
/// left of boundary `j` iff this rank is `≤` the pivot's origin rank
/// (the implicit `(key, rank)` comparison of Robust MPS). With every
/// flag `true` the predicate collapses to the flat `x <= pivot`.
pub fn take_equal_flags(rank: usize, origins: &[u32]) -> Vec<bool> {
    origins.iter().map(|&o| rank as u32 <= o).collect()
}

/// Appends one stage-1 frame: `{dest: u32, len: u64, bytes}`.
fn frame_push(out: &mut Vec<u8>, id: u32, bytes: &[u8]) {
    out.extend(id.to_le_bytes());
    out.extend((bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Parses frames appended by [`frame_push`].
fn frames(bytes: &[u8]) -> Vec<(u32, &[u8])> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let id = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("frame id"));
        let len =
            u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("frame len")) as usize;
        at += 12;
        out.push((id, &bytes[at..at + len]));
        at += len;
    }
    out
}

/// Two-level personalized all-to-all: the grouped replacement for the
/// redistribution's flat exchange. `outgoing[j]` is the payload for
/// global rank `j`; the result is indexed by global source rank, exactly
/// like [`NodeCtx::all_to_all`].
///
/// Stage 1 routes every payload to the in-group **relay** responsible
/// for its destination group (`members[dest_group mod group_size]`);
/// stage 2 has each relay combine everything its group produced for one
/// destination into a single framed message. A node therefore exchanges
/// `O(√p)` messages per stage instead of `p − 1`, and the data crosses
/// the network twice — the AMS-sort trade. `record_size` prices the
/// relay's extra copy as record moves.
pub async fn two_level_exchange(
    ctx: &mut NodeCtx,
    outgoing: Vec<Vec<u8>>,
    record_size: usize,
) -> Vec<Vec<u8>> {
    let p = ctx.p;
    let rank = ctx.rank;
    assert_eq!(outgoing.len(), p, "one payload per destination");
    assert!(record_size > 0, "records have positive size");
    let layout = GroupLayout::new(p);
    let my_group = layout.group_of(rank);
    let members = layout.members(my_group);
    let msize = members.len();
    let my_idx = rank - members[0];
    let group_label = format!("g{my_group}");

    // ---- Stage 1: pack each destination's payload into the frame list
    // of the in-group relay that owns the destination's group. ----
    let mut per_relay: Vec<Vec<u8>> = vec![Vec::new(); msize];
    for (dest, bytes) in outgoing.into_iter().enumerate() {
        let relay = layout.group_of(dest) % msize;
        frame_push(&mut per_relay[relay], dest as u32, &bytes);
    }
    ctx.set_comm_group(Some(&group_label));
    let stage1 = ctx
        .all_to_all_subset(&members, per_relay, TAG_ROUTE_1)
        .await;
    ctx.set_comm_group(None);

    // ---- Relay: bucket the received frames by destination. Frames are
    // parsed in member order, so each bucket lists sources ascending. ----
    let mut by_dest: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); p];
    let mut forwarded = 0u64;
    for (src_idx, buf) in stage1.iter().enumerate() {
        let src = members[src_idx] as u32;
        for (dest, bytes) in frames(buf) {
            if dest as usize != rank {
                forwarded += bytes.len() as u64;
            }
            by_dest[dest as usize].push((src, bytes.to_vec()));
        }
    }
    // The relay copy moves every forwarded record once more.
    ctx.charger
        .charge_work(Work::moves(forwarded / record_size as u64));

    // ---- Stage 2: one combined message per destination I relay for.
    // My destination groups are those hashing to my member index. ----
    for h in (0..layout.groups()).filter(|&h| h % msize == my_idx) {
        for dest in layout.members(h) {
            let mut msg = Vec::new();
            for (src, bytes) in by_dest[dest].drain(..) {
                frame_push(&mut msg, src, &bytes);
            }
            ctx.send(dest, TAG_ROUTE_2, msg);
        }
    }

    // ---- Receive: one message from each source group's relay for my
    // group; unpack frames back into per-source payloads. ----
    let mut incoming: Vec<Vec<u8>> = vec![Vec::new(); p];
    for gs in 0..layout.groups() {
        let relay_members = layout.members(gs);
        let relay = relay_members[my_group % relay_members.len()];
        let msg = ctx.recv_from(relay, TAG_ROUTE_2).await;
        for (src, bytes) in frames(&msg.bytes) {
            incoming[src as usize] = bytes.to_vec();
        }
    }
    incoming
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{run_cluster, ClusterSpec};

    #[test]
    fn layout_is_ceil_balanced_and_contiguous() {
        for p in 1..=70 {
            let l = GroupLayout::new(p);
            let g = l.groups();
            assert!(g * g >= p, "p={p}: g={g} too small");
            assert!(g == 1 || (g - 1) * (g - 1) < p, "p={p}: g={g} too big");
            let cap = l.max_group_size();
            let mut seen = Vec::new();
            for gi in 0..g {
                let m = l.members(gi);
                assert!(!m.is_empty() || p < g);
                assert!(m.len() <= cap, "p={p} group {gi} exceeds ceil size");
                assert_eq!(l.leader(gi), m[0]);
                for &r in &m {
                    assert_eq!(l.group_of(r), gi, "p={p} rank {r}");
                }
                seen.extend(m);
            }
            assert_eq!(seen, (0..p).collect::<Vec<_>>(), "p={p} not a partition");
        }
    }

    #[test]
    fn layout_known_shapes() {
        let l = GroupLayout::new(4);
        assert_eq!(l.groups(), 2);
        assert_eq!(l.members(0), vec![0, 1]);
        assert_eq!(l.members(1), vec![2, 3]);
        let l = GroupLayout::new(256);
        assert_eq!(l.groups(), 16);
        assert!(l.members(0).len() == 16);
        let l = GroupLayout::new(1024);
        assert_eq!(l.groups(), 32);
        assert_eq!(l.max_group_size(), 32);
        // Non-square p: ceil-balanced split.
        let l = GroupLayout::new(10);
        assert_eq!(l.groups(), 4);
        let sizes: Vec<usize> = (0..4).map(|gi| l.group_size(gi)).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn compress_preserves_total_weight() {
        let sample: Vec<(u32, u32)> = (0..1000).map(|i| (i, i % 7)).collect();
        for limit in [1usize, 3, 24, 999, 1000, 5000] {
            let cands = compress_sample(&sample, limit);
            assert!(cands.len() <= limit.min(1000));
            assert_eq!(cands.iter().map(|c| c.weight).sum::<u64>(), 1000);
            assert!(cands
                .windows(2)
                .all(|w| (w[0].key, w[0].origin) <= (w[1].key, w[1].origin)));
        }
    }

    #[test]
    fn candidate_codec_roundtrip() {
        let cands: Vec<Candidate<u32>> = (0..17)
            .map(|i| Candidate {
                key: i * 3,
                origin: i,
                weight: i as u64 + 1,
            })
            .collect();
        let bytes = encode_candidates(&cands);
        let back = decode_candidates::<u32>(&bytes);
        assert_eq!(back.len(), cands.len());
        for (a, b) in cands.iter().zip(&back) {
            assert_eq!((a.key, a.origin, a.weight), (b.key, b.origin, b.weight));
        }
        let (pv, og) = decode_pivots::<u32>(&encode_pivots(&[5u32, 9], &[1, 3]));
        assert_eq!(pv, vec![5, 9]);
        assert_eq!(og, vec![1, 3]);
    }

    #[test]
    fn weighted_selection_matches_flat_on_unit_weights() {
        // Unit-weight candidates are exactly the flat sample, so the
        // weighted selector must reproduce `select_pivots` keys.
        let perf = PerfVector::paper_1144();
        let total = perf.total();
        let sample: Vec<u32> = (0..(total * total) as u32).collect();
        let cands: Vec<Candidate<u32>> = sample
            .iter()
            .map(|&k| Candidate {
                key: k,
                origin: 0,
                weight: 1,
            })
            .collect();
        let (pv, _) = select_weighted_pivots(&cands, &perf);
        assert_eq!(pv, crate::pivots::select_pivots(&sample, &perf));
    }

    #[test]
    fn weighted_boundaries_are_monotone() {
        let perf = PerfVector::new(vec![3, 1, 2, 2, 1]);
        let cands: Vec<Candidate<u32>> = (0..40)
            .map(|i| Candidate {
                key: (i / 3) as u32, // runs of duplicates
                origin: (i % 5) as u32,
                weight: 1 + (i % 4) as u64,
            })
            .collect();
        let (pv, og) = select_weighted_pivots(&cands, &perf);
        assert_eq!(pv.len(), 4);
        assert!(pv
            .iter()
            .zip(&og)
            .zip(pv.iter().zip(&og).skip(1))
            .all(|((k0, o0), (k1, o1))| (k0, o0) <= (k1, o1)));
    }

    #[test]
    fn take_equal_matches_origin_rule() {
        let flags = take_equal_flags(2, &[1, 2, 3]);
        assert_eq!(flags, vec![false, true, true]);
        // All-true flags reproduce the flat predicate everywhere.
        assert!(take_equal_flags(0, &[5, 5]).iter().all(|&t| t));
    }

    #[test]
    fn two_level_exchange_matches_flat_all_to_all() {
        for p in [2usize, 3, 4, 5, 9, 12] {
            let spec = ClusterSpec::homogeneous(p);
            let report = run_cluster(&spec, async move |ctx| {
                let me = ctx.rank;
                // Distinct payload per (src, dest), empties included.
                let outgoing: Vec<Vec<u8>> = (0..ctx.p)
                    .map(|j| {
                        if (me + j) % 3 == 0 {
                            Vec::new()
                        } else {
                            vec![me as u8, j as u8, 0xAB, (me * j) as u8]
                        }
                    })
                    .collect();
                two_level_exchange(ctx, outgoing, 1).await
            });
            for (dest, node) in report.nodes.iter().enumerate() {
                for src in 0..p {
                    let expect: Vec<u8> = if (src + dest) % 3 == 0 {
                        Vec::new()
                    } else {
                        vec![src as u8, dest as u8, 0xAB, (src * dest) as u8]
                    };
                    assert_eq!(node.value[src], expect, "p={p} {src}->{dest}");
                }
            }
        }
    }

    #[test]
    fn two_level_exchange_caps_message_fan_in() {
        // At p = 16 (4 groups of 4) every node sends at most ~2√p
        // point-to-point messages instead of p − 1.
        let p = 16;
        let spec = ClusterSpec::homogeneous(p);
        let report = run_cluster(&spec, async move |ctx| {
            let before = ctx.sent_messages();
            let outgoing: Vec<Vec<u8>> = (0..ctx.p).map(|j| vec![j as u8; 8]).collect();
            let _ = two_level_exchange(ctx, outgoing, 1).await;
            ctx.sent_messages() - before
        });
        for node in &report.nodes {
            assert!(
                node.value <= 2 * 4,
                "node sent {} messages, want ≤ 2√p = 8",
                node.value
            );
        }
    }

    #[test]
    fn grouped_pivots_identical_on_every_node() {
        let p = 9;
        let spec = ClusterSpec::homogeneous(p);
        let perf = PerfVector::homogeneous(p);
        let report = run_cluster(&spec, async move |ctx| {
            let base = (ctx.rank as u32) * 100;
            let sample: Vec<u32> = (0..perf.get(ctx.rank) * perf.total())
                .map(|i| base + i as u32)
                .collect();
            let pv = PerfVector::homogeneous(ctx.p);
            grouped_select_pivots(ctx, &pv, sample, SortKernel::default()).await
        });
        let (p0, o0, _) = &report.nodes[0].value;
        assert_eq!(p0.len(), p - 1);
        for node in &report.nodes {
            let (pv, og, _) = &node.value;
            assert_eq!(pv, p0, "pivots must agree");
            assert_eq!(og, o0, "origins must agree");
        }
    }
}
