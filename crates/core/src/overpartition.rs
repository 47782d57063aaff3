//! Sorting by overpartitioning (Li & Sevcik, SPAA '94), adapted to
//! heterogeneous performance vectors.
//!
//! The paper's §3.3 comparison point: instead of sorting first and sampling
//! regularly, draw **random** pivot candidates from the *unsorted* data and
//! cut it into `s·p` small sublists (`s` = the overpartitioning factor).
//! Contiguous groups of sublists are then assigned to processors so that
//! group loads track the performance vector, and each processor sorts what
//! it received — the only sequential sort in the algorithm.
//!
//! Its advantage is skipping the initial sort; its weakness — the one the
//! paper cites as the reason to prefer PSRS — is load balance: random
//! pivots make uneven sublists, and Li & Sevcik themselves report sublist
//! expansions around 1.3 where PSRS achieves a few percent. The ablation
//! bench `ablation_pivots` reproduces that gap.

use std::time::Instant;

use cluster::charge::Work;
use cluster::{NodeCtx, Tag};
use extsort::{sort_chunk, ExtSortConfig, SortKernel, SortReport};
use pdm::{record, PdmResult, Record};

use crate::perf::PerfVector;
use crate::sampling::random_positions;

/// Tag for overpartitioning data chunks.
const TAG_BUCKET_DATA: Tag = Tag(0x0200);

/// Configuration shared by the in-core and external variants.
#[derive(Debug, Clone)]
pub struct OverpartitionConfig {
    /// Declared performance vector (group-load targets).
    pub perf: PerfVector,
    /// Overpartitioning factor `s`: the data is cut into `s·p` sublists.
    pub oversampling: u64,
}

/// Random pivot candidates drawn per unit of performance (the candidate
/// count on node `i` is `CANDIDATES_PER_UNIT · perf[i]`).
const CANDIDATES_PER_UNIT: u64 = 64;

impl OverpartitionConfig {
    /// Li & Sevcik's typical setting: `s = 4`, a healthy candidate pool.
    pub fn new(perf: PerfVector) -> Self {
        OverpartitionConfig {
            perf,
            oversampling: 4,
        }
    }

    /// Sets `s` (builder style).
    #[must_use]
    pub fn with_oversampling(mut self, s: u64) -> Self {
        assert!(s >= 1, "oversampling factor must be >= 1");
        self.oversampling = s;
        self
    }

    /// Total sublists `s·p`.
    pub fn sublists(&self) -> usize {
        (self.oversampling as usize) * self.perf.p()
    }
}

/// Chooses `s·p − 1` pivots: gathers random candidates on node 0, sorts
/// them and takes evenly spaced quantiles. Returns the pivots on every
/// node.
async fn choose_random_pivots<R: Record>(
    ctx: &mut NodeCtx,
    cfg: &OverpartitionConfig,
    draw: impl FnOnce(&mut NodeCtx, u64) -> PdmResult<Vec<R>>,
) -> PdmResult<Vec<R>> {
    let count = CANDIDATES_PER_UNIT * cfg.perf.get(ctx.rank);
    let candidates = draw(ctx, count)?;
    let gathered = ctx.gather(0, record::encode_all(&candidates)).await;
    let pivots: Vec<R> = if ctx.rank == 0 {
        let mut all: Vec<R> = gathered
            .expect("root gathers")
            .iter()
            .flat_map(|b| record::decode_all::<R>(b))
            .collect();
        let t0 = Instant::now();
        let kw = sort_chunk(&mut all, SortKernel::default());
        ctx.charger.charge_section(
            Work {
                comparisons: kw.comparisons,
                key_ops: kw.key_ops,
                moves: all.len() as u64,
            },
            t0.elapsed(),
        );
        let cuts = cfg.sublists() as u64 - 1;
        let pivots: Vec<R> = if all.is_empty() {
            Vec::new()
        } else {
            (1..=cuts)
                .map(|q| {
                    all[((q * all.len() as u64) / (cuts + 1)).min(all.len() as u64 - 1) as usize]
                })
                .collect()
        };
        ctx.broadcast(0, record::encode_all(&pivots)).await;
        pivots
    } else {
        record::decode_all(&ctx.broadcast(0, Vec::new()).await)
    };
    Ok(pivots)
}

/// Greedy contiguous assignment: walks the sublists in key order and closes
/// node `j`'s group once its load reaches the proportional target. Returns
/// for each sublist the owning node. Keys stay contiguous per node, so
/// concatenating node outputs by rank is globally sorted.
pub fn assign_sublists(global_sizes: &[u64], perf: &PerfVector) -> Vec<usize> {
    let p = perf.p();
    let m = global_sizes.len();
    let n: u64 = global_sizes.iter().sum();
    let total = perf.total();
    let mut owner = vec![0usize; m];
    let mut node = 0usize;
    let mut in_group = 0u64; // sublists in the current node's group
    let mut cum_load = 0u64; // records assigned so far (all groups)
    for (b, &sz) in global_sizes.iter().enumerate() {
        if node + 1 < p && in_group > 0 {
            let remaining = m - b;
            let nodes_after = p - 1 - node;
            // Advance when the cumulative target for this node's prefix is
            // met, or when staying would starve a later node of its one
            // guaranteed sublist.
            let cum_target = n * perf.cumulative(node + 1) / total;
            if cum_load >= cum_target || remaining <= nodes_after {
                node += 1;
                in_group = 0;
            }
        }
        owner[b] = node;
        in_group += 1;
        cum_load += sz;
    }
    owner
}

/// Per-node outcome of an overpartitioning run.
#[derive(Debug)]
pub struct OverpartitionOutcome<R> {
    /// This node's final sorted portion (in-core variant).
    pub sorted: Vec<R>,
    /// Records received.
    pub received: u64,
    /// The number of sublists this run used.
    pub sublists: usize,
}

/// In-core sorting by overpartitioning. Node outputs concatenated by rank
/// form the sorted input.
pub async fn overpartition_incore<R: Record>(
    ctx: &mut NodeCtx,
    cfg: &OverpartitionConfig,
    local: Vec<R>,
) -> PdmResult<OverpartitionOutcome<R>> {
    assert_eq!(cfg.perf.p(), ctx.p, "perf vector must cover every node");
    let p = ctx.p;
    let sublists = cfg.sublists();

    // Random candidates from the *unsorted* local data — no initial sort.
    let pivots = choose_random_pivots::<R>(ctx, cfg, |ctx, count| {
        let pos = random_positions(local.len() as u64, count, &mut ctx.rng);
        Ok(pos.iter().map(|&q| local[q as usize]).collect())
    })
    .await?;
    ctx.mark_phase("pivots");

    // Classify each record into its sublist (binary search over pivots:
    // ~log2(s·p) comparisons per record).
    let mut buckets: Vec<Vec<R>> = vec![Vec::new(); sublists];
    let est = Work {
        comparisons: local.len() as u64 * (usize::BITS - sublists.leading_zeros()) as u64,
        key_ops: 0,
        moves: local.len() as u64,
    };
    ctx.charger.compute(est, || {
        for &x in &local {
            let b = pivots.partition_point(|pv| *pv < x);
            buckets[b].push(x);
        }
    });

    // Everyone learns global sublist sizes; node 0 computes the contiguous
    // assignment and broadcasts it.
    let my_sizes: Vec<u64> = buckets.iter().map(|b| b.len() as u64).collect();
    let gathered = ctx.gather(0, encode_u64s(&my_sizes)).await;
    let owners: Vec<usize> = if ctx.rank == 0 {
        let mut global = vec![0u64; sublists];
        for payload in gathered.expect("root gathers") {
            for (g, v) in global.iter_mut().zip(decode_u64s(&payload)) {
                *g += v;
            }
        }
        let owners = assign_sublists(&global, &cfg.perf);
        ctx.broadcast(0, encode_usizes(&owners)).await;
        owners
    } else {
        decode_usizes(&ctx.broadcast(0, Vec::new()).await)
    };
    ctx.mark_phase("assign");

    // Route buckets to their owners.
    let mut outgoing: Vec<Vec<R>> = vec![Vec::new(); p];
    for (b, bucket) in buckets.into_iter().enumerate() {
        outgoing[owners[b]].extend(bucket);
    }
    ctx.charger.charge_work(Work::moves(local.len() as u64));
    let incoming = ctx
        .all_to_all(outgoing.iter().map(|v| record::encode_all(v)).collect())
        .await;
    ctx.mark_phase("redistribute");

    // The single sequential sort of the algorithm.
    let mut sorted: Vec<R> = incoming
        .iter()
        .flat_map(|b| record::decode_all::<R>(b))
        .collect();
    let t0 = Instant::now();
    let kw = sort_chunk(&mut sorted, SortKernel::default());
    ctx.charger.charge_section(
        Work {
            comparisons: kw.comparisons,
            key_ops: kw.key_ops,
            moves: sorted.len() as u64,
        },
        t0.elapsed(),
    );
    ctx.mark_phase("sort");

    Ok(OverpartitionOutcome {
        received: sorted.len() as u64,
        sorted,
        sublists,
    })
}

/// External (out-of-core) sorting by overpartitioning: classify the
/// unsorted input file into `s·p` bucket files, route whole buckets to
/// their owners, then polyphase-sort the received data. `input`/`output`
/// name per-node disk files.
pub async fn overpartition_external<R: Record>(
    ctx: &mut NodeCtx,
    cfg: &OverpartitionConfig,
    mem_records: usize,
    tapes: usize,
    msg_records: usize,
    input: &str,
    output: &str,
) -> PdmResult<OverpartitionOutcome<R>> {
    assert_eq!(cfg.perf.p(), ctx.p, "perf vector must cover every node");
    let p = ctx.p;
    let rank = ctx.rank;
    let sublists = cfg.sublists();
    let bucket_prefix = "ovp.bucket";
    let recv_name = "ovp.recv";

    // Random candidates via metered random reads of the unsorted file.
    let pivots = choose_random_pivots::<R>(ctx, cfg, |ctx, count| {
        let mut rd = ctx.disk.open_reader::<R>(input)?;
        let pos = random_positions(rd.len(), count, &mut ctx.rng);
        pos.iter().map(|&q| rd.read_at(q)).collect()
    })
    .await?;
    ctx.mark_phase("pivots");

    // Classify the input stream into s·p bucket files.
    let mut rd = ctx.disk.open_reader::<R>(input)?;
    let mut writers = (0..sublists)
        .map(|b| ctx.disk.create_writer::<R>(&format!("{bucket_prefix}{b}")))
        .collect::<PdmResult<Vec<_>>>()?;
    let mut my_sizes = vec![0u64; sublists];
    let n_local = rd.len();
    let t0 = Instant::now();
    while let Some(x) = rd.next_record()? {
        let b = pivots.partition_point(|pv| *pv < x);
        writers[b].push(x)?;
        my_sizes[b] += 1;
    }
    for w in writers {
        w.finish()?;
    }
    drop(rd);
    ctx.charger.charge_section(
        Work {
            comparisons: n_local * (usize::BITS - sublists.leading_zeros()) as u64,
            key_ops: 0,
            moves: n_local,
        },
        t0.elapsed(),
    );
    ctx.mark_phase("classify");

    // Global sizes → contiguous assignment (same logic as in-core).
    let gathered = ctx.gather(0, encode_u64s(&my_sizes)).await;
    let owners: Vec<usize> = if rank == 0 {
        let mut global = vec![0u64; sublists];
        for payload in gathered.expect("root gathers") {
            for (g, v) in global.iter_mut().zip(decode_u64s(&payload)) {
                *g += v;
            }
        }
        let owners = assign_sublists(&global, &cfg.perf);
        ctx.broadcast(0, encode_usizes(&owners)).await;
        owners
    } else {
        decode_usizes(&ctx.broadcast(0, Vec::new()).await)
    };
    ctx.mark_phase("assign");

    // Announce per-destination totals, then stream buckets to their owners.
    let mut dest_totals = vec![0u64; p];
    for (b, &o) in owners.iter().enumerate() {
        dest_totals[o] += my_sizes[b];
    }
    let incoming_sizes: Vec<u64> = ctx
        .all_to_all(
            dest_totals
                .iter()
                .map(|&s| s.to_le_bytes().to_vec())
                .collect(),
        )
        .await
        .iter()
        .map(|b| u64::from_le_bytes(b.as_slice().try_into().expect("8-byte size")))
        .collect();

    let mut recv_writer = ctx.disk.create_writer::<R>(recv_name)?;
    for (b, &dest) in owners.iter().enumerate() {
        let name = format!("{bucket_prefix}{b}");
        let mut rd = ctx.disk.open_reader::<R>(&name)?;
        if dest == rank {
            // Keep locally (still one read+write pass, like a real move).
            rd.copy_to(&mut recv_writer)?;
        } else {
            let mut chunk: Vec<R> = Vec::with_capacity(msg_records);
            loop {
                chunk.clear();
                if rd.read_into(&mut chunk, msg_records)? == 0 {
                    break;
                }
                ctx.charger.charge_work(Work::moves(chunk.len() as u64));
                ctx.send_records(dest, TAG_BUCKET_DATA, &chunk);
            }
        }
        drop(rd);
        ctx.disk.remove(&name)?;
    }
    // Chunking is per *bucket*, so the message count per destination is not
    // derivable from the totals alone; an empty message terminates each
    // sender's stream.
    for j in (0..p).filter(|&j| j != rank) {
        ctx.send_records::<R>(j, TAG_BUCKET_DATA, &[]);
    }
    for i in (0..p).filter(|&i| i != rank) {
        let mut got = 0u64;
        loop {
            let records: Vec<R> = ctx.recv_records(i, TAG_BUCKET_DATA).await;
            if records.is_empty() {
                break;
            }
            got += records.len() as u64;
            ctx.charger.charge_work(Work::moves(records.len() as u64));
            recv_writer.push_all(&records)?;
        }
        debug_assert_eq!(got, incoming_sizes[i], "bucket bytes lost from node {i}");
    }
    let received = recv_writer.finish()?;
    ctx.mark_phase("redistribute");

    // The single external sort, on the received (unsorted) data.
    let sort_cfg = ExtSortConfig::new(mem_records).with_tapes(tapes);
    let t0 = Instant::now();
    let report: SortReport =
        extsort::polyphase_sort::<R>(&ctx.disk, recv_name, output, "ovp", &sort_cfg)?;
    ctx.charger.charge_section(
        Work {
            comparisons: report.comparisons,
            key_ops: report.key_ops,
            moves: report.records * (report.merge_phases as u64 + 1),
        },
        t0.elapsed(),
    );
    ctx.disk.remove(recv_name)?;
    ctx.mark_phase("sort");

    Ok(OverpartitionOutcome {
        sorted: Vec::new(),
        received,
        sublists,
    })
}

fn encode_u64s(xs: &[u64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn encode_usizes(xs: &[usize]) -> Vec<u8> {
    encode_u64s(&xs.iter().map(|&x| x as u64).collect::<Vec<_>>())
}

fn decode_usizes(bytes: &[u8]) -> Vec<usize> {
    decode_u64s(bytes).into_iter().map(|x| x as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{run_cluster, ClusterSpec};
    use workloads::{generate_block, generate_to_disk, Benchmark, Layout};

    #[test]
    fn assign_sublists_contiguous_and_balanced() {
        let perf = PerfVector::homogeneous(4);
        let sizes = vec![10u64; 16]; // 16 equal sublists, 4 nodes
        let owners = assign_sublists(&sizes, &perf);
        // Contiguous and non-decreasing.
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*owners.last().unwrap(), 3);
        // Equal split: 4 sublists each.
        for node in 0..4 {
            assert_eq!(owners.iter().filter(|&&o| o == node).count(), 4);
        }
    }

    #[test]
    fn assign_sublists_heterogeneous_targets() {
        let perf = PerfVector::paper_1144();
        let sizes = vec![5u64; 40];
        let owners = assign_sublists(&sizes, &perf);
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        let mut loads = [0u64; 4];
        for (b, &o) in owners.iter().enumerate() {
            loads[o] += sizes[b];
        }
        // Targets 20,20,80,80 of 200; greedy quantization within one sublist.
        assert!(loads[2] > loads[0]);
        assert_eq!(loads.iter().sum::<u64>(), 200);
    }

    #[test]
    fn assign_gives_every_node_work_when_possible() {
        let perf = PerfVector::homogeneous(3);
        let sizes = vec![100u64, 1, 1];
        let owners = assign_sublists(&sizes, &perf);
        // 3 sublists, 3 nodes: everyone gets exactly one.
        assert_eq!(owners, vec![0, 1, 2]);
    }

    #[test]
    fn incore_sorts_correctly() {
        let spec = ClusterSpec::homogeneous(4);
        let perf = PerfVector::homogeneous(4);
        let n = perf.padded_size(4000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = OverpartitionConfig::new(perf.clone());
        let report = run_cluster(&spec, async move |ctx| {
            let local = generate_block(Benchmark::Uniform, 8, layouts[ctx.rank]);
            overpartition_incore(ctx, &cfg, local).await.unwrap().sorted
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
    fn incore_heterogeneous_expansion_reasonable() {
        let spec = ClusterSpec::new(vec![1, 1, 4, 4]);
        let perf = PerfVector::paper_1144();
        let n = perf.padded_size(20_000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = OverpartitionConfig::new(perf.clone()).with_oversampling(8);
        let report = run_cluster(&spec, async move |ctx| {
            let local = generate_block(Benchmark::Uniform, 9, layouts[ctx.rank]);
            overpartition_incore(ctx, &cfg, local)
                .await
                .unwrap()
                .sorted
                .len() as u64
        });
        let sizes: Vec<u64> = report.nodes.iter().map(|n| n.value).collect();
        let lb = crate::metrics::LoadBalance::new(sizes, &perf);
        // Weaker than PSRS but bounded; Li & Sevcik live around 1.3.
        assert!(lb.expansion() < 2.5, "expansion {}", lb.expansion());
    }

    #[test]
    fn external_sorts_correctly() {
        let spec = ClusterSpec::homogeneous(3).with_block_bytes(64);
        let perf = PerfVector::homogeneous(3);
        let n = perf.padded_size(3000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = OverpartitionConfig::new(perf.clone());
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "in", Benchmark::Gaussian, 10, layouts[ctx.rank]).unwrap();
            let out = overpartition_external::<u32>(ctx, &cfg, 256, 4, 64, "in", "out")
                .await
                .unwrap();
            assert!(extsort::is_sorted_file::<u32>(&ctx.disk, "out").unwrap());
            (out.received, ctx.disk.read_file::<u32>("out").unwrap())
        });
        let flat: Vec<u32> = report
            .nodes
            .iter()
            .flat_map(|n| n.value.1.iter().copied())
            .collect();
        assert_eq!(flat.len() as u64, n);
        assert!(flat.windows(2).all(|w| w[0] <= w[1]), "global order broken");
        for node in &report.nodes {
            assert_eq!(node.value.0 as usize, node.value.1.len());
        }
    }

    #[test]
    fn u64_codecs_roundtrip() {
        let xs = vec![0u64, 1, u64::MAX, 42];
        assert_eq!(decode_u64s(&encode_u64s(&xs)), xs);
        let us = vec![0usize, 7, 1000];
        assert_eq!(decode_usizes(&encode_usizes(&us)), us);
    }
}
