//! Multi-level (√p-group) splitter selection and two-level data routing.
//!
//! The flat path has node 0 gather and sort `(Σperf)²` pivot candidates —
//! the O(p²) centralized bottleneck the scale sweep measured at 67% of the
//! makespan by p = 256. This module replaces it with the AMS-sort-style
//! two-level scheme (*Practical Massively Parallel Sorting*, Axtmann et
//! al.), kept perf-vector-weighted so the paper's heterogeneous expansion
//! bound survives:
//!
//! * **Level 1** — nodes form `g = ⌈√p⌉` contiguous groups. Every member
//!   ships its whole sorted regular sample, keys only, to its group
//!   leader; origin rank and sample index follow from the gather order.
//!   The leader merges the exact group sample (billed as a
//!   `group_size`-way merge of sorted runs, at the key-op rate under
//!   key-based kernels) and compresses it to `OVERSAMPLE·Σperf_group`
//!   candidates at the group-staggered positions `⌊(t + gi/g)·L_g/c_g⌋`,
//!   each tagged with its exact position in the group sample.
//! * **Level 2** — the `g` leaders gather their candidates at the root
//!   leader, which merges `OVERSAMPLE·Σperf` of them by
//!   `(key, origin, index)` and estimates each one's rank in the whole
//!   flat sample in one linear sweep: its own position, plus, for every
//!   other group, the midpoint between that group's two neighbouring
//!   candidates. It picks the candidate nearest each flat target
//!   `cum_perf(j)·Σperf + p/2`. Pivots broadcast back down the two-level
//!   tree: root → leaders → members.
//!
//! Each estimate errs by at most half a stride (`Σperf/OVERSAMPLE` group
//! records) per other group, independently, so the pivot rank error is
//! about `√(g−1)·Σperf/(√12·OVERSAMPLE)` sample ranks against the slowest
//! node's `perf_min·Σperf`. Measured sublist expansion S(max), `hetsort
//! cluster --n 4194304` on homogeneous perf (the weighted-candidate
//! selector this replaced, whose members all cut at the same local
//! quantiles, read 1.99 / 3.97 / 7.88 / 30.7):
//!
//! | p | 9 | 25 | 64 | 256 |
//! |---|---|---|---|---|
//! | flat | 1.005 | 1.006 | 1.022 | 1.048 |
//! | grouped | 1.005 | 1.012 | 1.039 | 1.534 |
//!
//! Pivots are [`Pivot`] triples; nodes cut records equal to a pivot's key
//! by position with [`crate::pivots::equal_limits`], so duplicate floods
//! split where the sample says (*Robust Massively Parallel Sorting*).
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

use crate::incore::PivotStrategy;
use crate::perf::PerfVector;
use crate::pivots::{decode_pivots, encode_pivots, gather_select_pivots, pivot_ranks, Pivot};

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

/// Per-perf-unit candidate budget: a leader compresses its group sample
/// to `OVERSAMPLE·Σperf_group` position-tagged candidates, so the root
/// ranks `OVERSAMPLE·Σperf` of them — never the `(Σperf)²` flat sample.
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

    /// Runs this strategy's selection on every node: the flat root
    /// gather (pivots at `strategy`'s ranks) or [`grouped_select_pivots`]
    /// (regular-sampling ranks, with its per-stage timing). Returns
    /// identical pivot triples everywhere.
    pub async fn select<R: Record>(
        self,
        ctx: &mut NodeCtx,
        perf: &PerfVector,
        sample: &[R],
        strategy: PivotStrategy,
        kernel: SortKernel,
    ) -> (Vec<Pivot<R>>, Option<SplitTiming>) {
        match self {
            SplitterStrategy::Flat => (
                gather_select_pivots(ctx, perf, sample, strategy, kernel).await,
                None,
            ),
            SplitterStrategy::Grouped { levels } => {
                assert_eq!(levels, 2, "only two-level grouped selection is implemented");
                let (pivots, timing) = grouped_select_pivots(ctx, perf, sample, kernel).await;
                (pivots, Some(timing))
            }
        }
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
    /// Level 1: the leader merges the group sample and compresses it into
    /// position-tagged candidates.
    pub leader_sort_secs: f64,
    /// Level 2: leaders exchange candidates with the root, the root
    /// selects, and the pivots broadcast back down both levels.
    pub boundary_exchange_secs: f64,
}

/// One pivot candidate travelling leader → root: a group-sample record
/// and its exact position (rank) in the group's merged sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate<R> {
    pivot: Pivot<R>,
    pos: u64,
}

/// One group's level-2 payload: its sample length and its candidates in
/// `(key, origin, index)` order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GroupCandidates<R> {
    len: u64,
    cands: Vec<Candidate<R>>,
}

fn encode_candidates<R: Record>(group: &GroupCandidates<R>) -> Vec<u8> {
    let pivots: Vec<Pivot<R>> = group.cands.iter().map(|c| c.pivot).collect();
    let mut out = group.len.to_le_bytes().to_vec();
    out.extend(encode_pivots(&pivots));
    for c in &group.cands {
        out.extend(c.pos.to_le_bytes());
    }
    out
}

fn decode_candidates<R: Record>(bytes: &[u8]) -> GroupCandidates<R> {
    let len = u64::from_le_bytes(bytes[..8].try_into().expect("length"));
    let pivots = decode_pivots::<R>(&bytes[8..]);
    let at = bytes.len() - 8 * pivots.len();
    let cands = pivots
        .into_iter()
        .zip(bytes[at..].chunks_exact(8))
        .map(|(pivot, b)| Candidate {
            pivot,
            pos: u64::from_le_bytes(b.try_into().expect("position")),
        })
        .collect();
    GroupCandidates { len, cands }
}

/// Work estimate for combining `n` candidates arriving as `runs`
/// pre-sorted lists: one tournament select per item at `⌈log₂ runs⌉`
/// comparisons each — the k-way-merge bill, not an `n·log n` sort,
/// because every input list is already ordered by `(key, origin, index)`.
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

/// Compresses group `gi`'s merged sample (of `g` groups) to at most
/// `limit` candidates at the group-staggered positions
/// `⌊(t + gi/g)·L/c⌋`: every group samples its own quantiles off by
/// `gi/g` of a stride, so the root's candidates interleave instead of
/// stacking on the same key levels.
fn compress_group<R: Record>(
    sample: &[Pivot<R>],
    gi: usize,
    g: usize,
    limit: usize,
) -> GroupCandidates<R> {
    let len = sample.len() as u128;
    let c = limit.min(sample.len()) as u128;
    let cands = (0..c)
        .map(|t| {
            let pos = ((t * g as u128 + gi as u128) * len / (g as u128 * c)) as u64;
            Candidate {
                pivot: sample[pos as usize],
                pos,
            }
        })
        .collect();
    GroupCandidates {
        len: sample.len() as u64,
        cands,
    }
}

/// Merges every group's candidates into `(key, origin, index)` order and
/// estimates each one's rank in the whole (flat) sample, doubled to stay
/// integral, in one sweep. A candidate's count of preceding records is
/// exact in its own group (its `pos`); in every other group it lies
/// between the positions of that group's two neighbouring candidates and
/// is estimated by their midpoint. The estimates strictly increase along
/// the merged order; with every group sending its whole sample they are
/// the exact ranks.
fn estimate_ranks<R: Record>(groups: &[GroupCandidates<R>]) -> Vec<(Pivot<R>, u64)> {
    // Doubled midpoint of the records of group `h` preceding the sweep
    // once `t` of its candidates are behind it.
    let mid2 = |h: usize, t: usize| -> u64 {
        let cands = &groups[h].cands;
        let lo = if t == 0 { 0 } else { cands[t - 1].pos + 1 };
        let hi = cands.get(t).map_or(groups[h].len, |c| c.pos);
        lo + hi
    };
    let mut merged: Vec<(Candidate<R>, usize)> = groups
        .iter()
        .enumerate()
        .flat_map(|(h, grp)| grp.cands.iter().map(move |&c| (c, h)))
        .collect();
    merged.sort_unstable_by_key(|(c, _)| c.pivot);
    let mut passed = vec![0usize; groups.len()];
    let mut sum2: u64 = (0..groups.len()).map(|h| mid2(h, 0)).sum();
    merged
        .into_iter()
        .map(|(c, h)| {
            let own = mid2(h, passed[h]);
            let rank2 = sum2 - own + 2 * c.pos;
            passed[h] += 1;
            sum2 = sum2 - own + mid2(h, passed[h]);
            (c.pivot, rank2)
        })
        .collect()
}

/// Picks, for each flat target rank (`pivot_ranks` over the whole
/// sample), the candidate whose estimated rank is nearest. Targets and
/// estimates both increase, so one forward walk serves all and the pivots
/// come out nondecreasing in `(key, origin, index)`.
fn select_estimated<R: Record>(groups: &[GroupCandidates<R>], perf: &PerfVector) -> Vec<Pivot<R>> {
    let ranked = estimate_ranks(groups);
    assert!(
        !ranked.is_empty(),
        "cannot pick pivots from an empty sample"
    );
    let total: u64 = groups.iter().map(|grp| grp.len).sum();
    let mut idx = 0usize;
    pivot_ranks(total, perf)
        .into_iter()
        .map(|r| {
            let target2 = 2 * r;
            while idx + 1 < ranked.len() && ranked[idx + 1].1 <= target2 {
                idx += 1;
            }
            let pick = match ranked.get(idx + 1) {
                Some(next) if next.1 - target2 < target2.saturating_sub(ranked[idx].1) => idx + 1,
                _ => idx,
            };
            ranked[pick].0
        })
        .collect()
}

/// Runs the two-level splitter selection. Call on **every** node with the
/// node's sorted regular sample (drawn exactly as for the flat path) and
/// the in-core sort kernel, which decides whether merge selects bill as
/// comparisons or key ops. Returns the `p − 1` pivot triples (identical
/// on every node; turn them into tie-break limits with
/// [`crate::pivots::equal_limits`]) and the per-stage timing.
pub async fn grouped_select_pivots<R: Record>(
    ctx: &mut NodeCtx,
    perf: &PerfVector,
    sample: &[R],
    kernel: SortKernel,
) -> (Vec<Pivot<R>>, SplitTiming) {
    let p = ctx.p;
    let rank = ctx.rank;
    if p == 1 {
        return (Vec::new(), SplitTiming::default());
    }
    debug_assert!(
        sample.is_sorted(),
        "regular sample of sorted data must be sorted"
    );
    let layout = GroupLayout::new(p);
    let gi = layout.group_of(rank);
    let members = layout.members(gi);
    let leader = layout.leader(gi);
    let leaders = layout.leaders();
    let group_label = format!("g{gi}");

    // ---- Level 1: every member ships its whole sample, keys only, to
    // the group leader; origin and index follow from the gather order. ----
    let t0 = ctx.charger.now().as_secs();
    ctx.set_comm_group(Some(&group_label));
    let gathered = ctx
        .gather_subset(&members, leader, record::encode_all(sample), TAG_L1_GATHER)
        .await;
    let t1 = ctx.charger.now().as_secs();

    // ---- Level 1: the leader merges the exact group sample — each
    // member's list is already sorted, so the bill is a group_size-way
    // merge — and compresses it to OVERSAMPLE·Σperf_group candidates. ----
    let candidates: Option<GroupCandidates<R>> = gathered.map(|payloads| {
        let mut group: Vec<Pivot<R>> = payloads
            .iter()
            .zip(&members)
            .flat_map(|(bytes, &origin)| {
                record::decode_all::<R>(bytes)
                    .into_iter()
                    .enumerate()
                    .map(move |(index, key)| Pivot {
                        key,
                        origin: origin as u32,
                        index: index as u32,
                    })
            })
            .collect();
        let budget = OVERSAMPLE * members.iter().map(|&m| perf.get(m) as usize).sum::<usize>();
        let est = merge_estimate::<R>(group.len() as u64, members.len() as u64, kernel)
            .plus(Work::moves(budget.min(group.len()) as u64));
        ctx.obs
            .counter_add("split.level1.candidates", group.len() as u64);
        ctx.charger.compute(est, || {
            group.sort_unstable();
            compress_group(&group, gi, layout.groups(), budget)
        })
    });
    let t2 = ctx.charger.now().as_secs();

    // ---- Level 2: leaders → root candidate gather, rank estimation and
    // selection, broadcast back down both levels. ----
    let payload = if rank == leader {
        ctx.set_comm_group(Some("leaders"));
        let cands = candidates.expect("leader compressed its group sample");
        let root = leaders[0];
        let gathered = ctx
            .gather_subset(&leaders, root, encode_candidates(&cands), TAG_L2_GATHER)
            .await;
        let payload = match gathered {
            Some(payloads) => {
                let groups: Vec<GroupCandidates<R>> =
                    payloads.iter().map(|b| decode_candidates(b)).collect();
                let n: u64 = groups.iter().map(|grp| grp.cands.len() as u64).sum();
                ctx.obs.counter_add("split.level2.candidates", n);
                // The merge, then one linear estimation sweep and walk.
                let est = merge_estimate::<R>(n, leaders.len() as u64, kernel)
                    .plus(Work::comparisons(n + p as u64));
                let pivots = ctx.charger.compute(est, || select_estimated(&groups, perf));
                encode_pivots(&pivots)
            }
            None => Vec::new(),
        };
        let payload = ctx
            .broadcast_subset(&leaders, root, payload, TAG_L2_BCAST)
            .await;
        ctx.set_comm_group(Some(&group_label));
        ctx.broadcast_subset(&members, leader, payload, TAG_L1_BCAST)
            .await
    } else {
        ctx.broadcast_subset(&members, leader, Vec::new(), TAG_L1_BCAST)
            .await
    };
    let pivots = decode_pivots::<R>(&payload);
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
    (pivots, timing)
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

    /// Tags per-rank sorted samples with `(origin, index)` and splits
    /// them into `layout`'s groups, each merged into group-sample order.
    fn group_samples(samples: &[Vec<u32>], layout: &GroupLayout) -> Vec<Vec<Pivot<u32>>> {
        (0..layout.groups())
            .map(|gi| {
                let mut group: Vec<Pivot<u32>> = layout
                    .members(gi)
                    .into_iter()
                    .flat_map(|o| {
                        samples[o].iter().enumerate().map(move |(i, &key)| Pivot {
                            key,
                            origin: o as u32,
                            index: i as u32,
                        })
                    })
                    .collect();
                group.sort_unstable();
                group
            })
            .collect()
    }

    /// Per-rank sorted regular samples of heavily duplicated keys.
    fn dup_samples(perf: &PerfVector) -> Vec<Vec<u32>> {
        (0..perf.p())
            .map(|o| {
                let len = (perf.get(o) * perf.total()) as u32;
                (0..len)
                    .map(|i| (i * 7 + o as u32) / 5 % 13)
                    .collect::<Vec<_>>()
            })
            .map(|mut s| {
                s.sort_unstable();
                s
            })
            .collect()
    }

    #[test]
    fn whole_samples_give_exact_ranks_and_flat_pivots() {
        // With every group sending its whole sample the estimate is the
        // exact rank in the flat sample, so the pivots are the flat ones.
        for perf in [
            PerfVector::paper_1144(),
            PerfVector::new(vec![1, 2, 4, 1, 2, 4, 1, 2, 4, 1]),
        ] {
            let layout = GroupLayout::new(perf.p());
            let samples = dup_samples(&perf);
            let groups: Vec<GroupCandidates<u32>> = group_samples(&samples, &layout)
                .iter()
                .enumerate()
                .map(|(gi, grp)| compress_group(grp, gi, layout.groups(), usize::MAX))
                .collect();
            let ranked = estimate_ranks(&groups);
            for (r, &(_, rank2)) in ranked.iter().enumerate() {
                assert_eq!(rank2, 2 * r as u64, "p={}: estimate off at {r}", perf.p());
            }
            let mut flat: Vec<u32> = samples.concat();
            flat.sort_unstable();
            let pivots = select_estimated(&groups, &perf);
            let keys: Vec<u32> = pivots.iter().map(|pv| pv.key).collect();
            assert_eq!(keys, crate::pivots::select_pivots(&flat, &perf));
            // ... and the triples are the flat root's own.
            let ranks = pivot_ranks(flat.len() as u64, &perf);
            let (located, _) = crate::pivots::locate_pivots(&samples, &flat, &ranks);
            assert_eq!(pivots, located);
        }
    }

    #[test]
    fn compressed_estimates_stay_within_a_stride() {
        // Compressed to OVERSAMPLE·Σperf_group candidates, every estimate
        // is within half a stride (Σperf/OVERSAMPLE group records) per
        // other group of the candidate's exact flat rank.
        let perf = PerfVector::new([1, 2, 4].into_iter().cycle().take(16).collect());
        let layout = GroupLayout::new(perf.p());
        let samples = dup_samples(&perf);
        let grouped = group_samples(&samples, &layout);
        let groups: Vec<GroupCandidates<u32>> = grouped
            .iter()
            .enumerate()
            .map(|(gi, grp)| {
                let budget: u64 = layout.members(gi).iter().map(|&m| perf.get(m)).sum();
                compress_group(grp, gi, layout.groups(), OVERSAMPLE * budget as usize)
            })
            .collect();
        let mut flat: Vec<Pivot<u32>> = grouped.concat();
        flat.sort_unstable();
        let stride = perf.total().div_ceil(OVERSAMPLE as u64);
        let slack2 = (layout.groups() as u64 - 1) * (stride + 1);
        for (pivot, rank2) in estimate_ranks(&groups) {
            let exact2 = 2 * flat.binary_search(&pivot).unwrap() as u64;
            assert!(
                rank2.abs_diff(exact2) <= slack2,
                "{pivot:?}: estimate {rank2} vs exact {exact2} (doubled)"
            );
        }
    }

    #[test]
    fn staggered_positions_interleave_groups() {
        let sample: Vec<Pivot<u32>> = (0..100)
            .map(|i| Pivot {
                key: i,
                origin: 0,
                index: i,
            })
            .collect();
        let pos = |gi| -> Vec<u64> {
            compress_group(&sample, gi, 4, 10)
                .cands
                .iter()
                .map(|c| c.pos)
                .collect()
        };
        assert_eq!(pos(0), vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
        assert_eq!(pos(1), vec![2, 12, 22, 32, 42, 52, 62, 72, 82, 92]);
        assert_eq!(pos(3), vec![7, 17, 27, 37, 47, 57, 67, 77, 87, 97]);
        // A budget beyond the sample sends it whole.
        assert_eq!(compress_group(&sample, 3, 4, 500).cands.len(), 100);
    }

    #[test]
    fn equal_limits_cut_an_all_equal_flood_at_exact_positions() {
        // Every key equal: the flat sample order is (origin, index), so
        // each pivot's limit cuts its origin's block right after the
        // pivot's own record and the partitions follow the sample ranks.
        let perf = PerfVector::paper_1144();
        let shares = perf.shares(1_000);
        let samples: Vec<Vec<u32>> = (0..perf.p())
            .map(|o| vec![7; crate::sampling::regular_sample_count(&perf, o) as usize])
            .collect();
        let layout = GroupLayout::new(perf.p());
        let groups: Vec<GroupCandidates<u32>> = group_samples(&samples, &layout)
            .iter()
            .enumerate()
            .map(|(gi, grp)| compress_group(grp, gi, layout.groups(), usize::MAX))
            .collect();
        let pivots = select_estimated(&groups, &perf);
        let keys: Vec<u32> = pivots.iter().map(|pv| pv.key).collect();
        let mut received = vec![0usize; perf.p()];
        for (rank, &share) in shares.iter().enumerate() {
            let positions = crate::sampling::regular_positions(share, samples[rank].len() as u64);
            let limits = crate::pivots::equal_limits(rank, &pivots, &positions);
            let cuts = crate::partition::partition_ranges_tiebreak(
                &vec![7u32; share as usize],
                &keys,
                &limits,
            );
            for (j, w) in cuts.windows(2).enumerate() {
                received[j] += w[1] - w[0];
            }
        }
        // Flat ranks 12, 22, 62 of the 100-sample (10, 10, 40, 40):
        // (rank 1, index 2), (rank 2, index 2), (rank 3, index 2), each
        // standing for 10 records, cut right after the pivot's record.
        let triples: Vec<(u32, u32)> = pivots.iter().map(|pv| (pv.origin, pv.index)).collect();
        assert_eq!(triples, vec![(1, 2), (2, 2), (3, 2)]);
        assert_eq!(received, vec![100 + 21, 79 + 21, 379 + 21, 379]);
        assert_eq!(received.iter().sum::<usize>(), 1_000);
    }

    #[test]
    fn boundaries_are_nondecreasing_in_key_origin_index() {
        let perf = PerfVector::new(vec![3, 1, 2, 2, 1, 4, 1, 2, 1]);
        let layout = GroupLayout::new(perf.p());
        let samples = dup_samples(&perf);
        for budget in [1usize, 3, OVERSAMPLE, 1 << 20] {
            let groups: Vec<GroupCandidates<u32>> = group_samples(&samples, &layout)
                .iter()
                .enumerate()
                .map(|(gi, grp)| compress_group(grp, gi, layout.groups(), budget))
                .collect();
            let ranked = estimate_ranks(&groups);
            assert!(ranked.windows(2).all(|w| w[0] < w[1]), "budget {budget}");
            let pivots = select_estimated(&groups, &perf);
            assert_eq!(pivots.len(), perf.p() - 1);
            assert!(pivots.is_sorted(), "budget {budget}: {pivots:?}");
            // Every node's cuts stay ordered under the derived limits.
            for (rank, sample) in samples.iter().enumerate() {
                let positions: Vec<u64> = (0..sample.len() as u64).collect();
                let limits = crate::pivots::equal_limits(rank, &pivots, &positions);
                for (w, l) in pivots.windows(2).zip(limits.windows(2)) {
                    assert!(
                        w[0].key < w[1].key || l[0] <= l[1],
                        "rank {rank}: {w:?} {l:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_codec_roundtrip() {
        let cands = GroupCandidates {
            len: 99,
            cands: (0..17u32)
                .map(|i| Candidate {
                    pivot: Pivot {
                        key: i * 3,
                        origin: i,
                        index: i + 1,
                    },
                    pos: i as u64 * 5,
                })
                .collect(),
        };
        assert_eq!(decode_candidates::<u32>(&encode_candidates(&cands)), cands);
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
            grouped_select_pivots(ctx, &pv, &sample, SortKernel::default()).await
        });
        let (p0, _) = &report.nodes[0].value;
        assert_eq!(p0.len(), p - 1);
        for node in &report.nodes {
            assert_eq!(&node.value.0, p0, "pivots must agree");
        }
    }
}
