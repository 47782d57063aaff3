//! Deterministic block generators.
//!
//! A [`Layout`] describes one node's slice of the global input: the node
//! rank, the cluster width, the block length, the block's global offset and
//! the global total. Generators are pure functions of
//! `(seed, benchmark, layout)`, so any node can (re)generate its block
//! independently — exactly how the harness seeds a cluster without shipping
//! data around.

use pdm::{Disk, PdmResult};
use sim::rng::{Pcg64, Rng, Zipf};
use sim::SplitMix64;

use crate::dist::Benchmark;

/// One node's position in the global input.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Node rank.
    pub node: usize,
    /// Cluster width `p`.
    pub p: usize,
    /// Records in this node's block.
    pub len: u64,
    /// Global index of the block's first record.
    pub offset: u64,
    /// Global record count `n`.
    pub total: u64,
}

impl Layout {
    /// Layouts for a whole cluster given per-node share sizes.
    pub fn cluster(shares: &[u64]) -> Vec<Layout> {
        let p = shares.len();
        let total: u64 = shares.iter().sum();
        let mut offset = 0;
        shares
            .iter()
            .enumerate()
            .map(|(node, &len)| {
                let l = Layout {
                    node,
                    p,
                    len,
                    offset,
                    total,
                };
                offset += len;
                l
            })
            .collect()
    }

    /// A single-node layout covering everything.
    pub fn single(n: u64) -> Layout {
        Layout {
            node: 0,
            p: 1,
            len: n,
            offset: 0,
            total: n,
        }
    }
}

/// Streams node `layout.node`'s block for `bench` into `emit`.
pub fn generate_into(bench: Benchmark, seed: u64, layout: Layout, mut emit: impl FnMut(u32)) {
    let mut rng = Pcg64::with_stream(
        seed ^ SplitMix64::mix(bench.id() as u64),
        layout.node as u64,
    );
    let p = layout.p.max(1) as u64;
    // Key-range width when the key space is cut into p slabs.
    let width = (1u64 << 32) / p;
    match bench {
        Benchmark::Uniform => {
            for _ in 0..layout.len {
                emit(rng.next_u32());
            }
        }
        Benchmark::Gaussian => {
            // Average of four uniforms (Helman–JáJá–Bader's [G] input).
            for _ in 0..layout.len {
                let s: u64 = (0..4).map(|_| rng.next_u32() as u64).sum();
                emit((s / 4) as u32);
            }
        }
        Benchmark::Zero => {
            for _ in 0..layout.len {
                emit(0xBEEF);
            }
        }
        Benchmark::BucketSorted => {
            // The block ascends through all p slabs: record j sits in slab
            // floor(j·p/len), uniformly within the slab.
            for j in 0..layout.len {
                // `j < layout.len`, so the division is safe.
                let slab = j * p / layout.len;
                emit((slab * width + rng.below(width.max(1))) as u32);
            }
        }
        Benchmark::GGroup => {
            // Nodes form groups of g = max(2, p/2); a block only carries
            // keys from its own group's slabs, cycling among them.
            let g = (p / 2).max(2).min(p);
            let group = layout.node as u64 / g;
            for j in 0..layout.len {
                let slab = (group * g + (j % g)) % p;
                emit((slab * width + rng.below(width.max(1))) as u32);
            }
        }
        Benchmark::Staggered => {
            // Node i holds exactly one slab, chosen by the staggered
            // permutation: i < p/2 → slab 2i+1, else slab 2(i − p/2).
            let i = layout.node as u64;
            let slab = if i < p / 2 {
                2 * i + 1
            } else {
                2 * (i - p / 2)
            } % p;
            for _ in 0..layout.len {
                emit((slab * width + rng.below(width.max(1))) as u32);
            }
        }
        Benchmark::Sorted => {
            for j in 0..layout.len {
                emit(global_rank_key(layout.offset + j, layout.total));
            }
        }
        Benchmark::ReverseSorted => {
            for j in 0..layout.len {
                let g = layout.offset + j;
                emit(global_rank_key(layout.total - 1 - g, layout.total));
            }
        }
        Benchmark::ZipfDuplicates => {
            let distinct = 4096.min(layout.total.max(1)) as usize;
            let zipf = Zipf::new(distinct, 1.1);
            for _ in 0..layout.len {
                let rank = zipf.sample(&mut rng) as u64;
                // Spread the distinct keys over the key space (order
                // destroyed on purpose — only multiplicity matters).
                emit(SplitMix64::mix(rank) as u32);
            }
        }
        Benchmark::HotKey => {
            for _ in 0..layout.len {
                let x = rng.next_u32();
                emit(if rng.below(10) < 3 { HOT_KEY } else { x });
            }
        }
    }
}

/// The key [`Benchmark::HotKey`] repeats: mid key space, so the run sits
/// inside some node's range rather than at an end.
const HOT_KEY: u32 = 0x8000_0000;

/// Maps a global rank to a key that preserves order and spans the key
/// space (distinct while `total ≤ 2³²`).
fn global_rank_key(rank: u64, total: u64) -> u32 {
    if total <= 1 {
        return 0;
    }
    // Scale rank into [0, 2^32) monotonically.
    (((rank as u128) << 32) / total as u128) as u32
}

/// Generates one node's block into memory.
///
/// ```
/// use workloads::{generate_block, Benchmark, Layout};
///
/// let layouts = Layout::cluster(&[100, 400]); // heterogeneous shares
/// let block = generate_block(Benchmark::Sorted, 7, layouts[1]);
/// assert_eq!(block.len(), 400);
/// assert!(block.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn generate_block(bench: Benchmark, seed: u64, layout: Layout) -> Vec<u32> {
    let mut out = Vec::with_capacity(layout.len as usize);
    generate_into(bench, seed, layout, |x| out.push(x));
    out
}

/// Generates one node's block straight onto a disk file (streaming; never
/// holds more than a block buffer in memory).
pub fn generate_to_disk(
    disk: &Disk,
    name: &str,
    bench: Benchmark,
    seed: u64,
    layout: Layout,
) -> PdmResult<u64> {
    let mut writer = disk.create_writer::<u32>(name)?;
    let mut err = None;
    generate_into(bench, seed, layout, |x| {
        if err.is_none() {
            if let Err(e) = writer.push(x) {
                err = Some(e);
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    writer.finish()
}

/// Generates the whole input (all nodes concatenated) into memory — for
/// tests and single-node experiments.
pub fn generate_whole(bench: Benchmark, seed: u64, shares: &[u64]) -> Vec<u32> {
    let mut out = Vec::new();
    for layout in Layout::cluster(shares) {
        generate_into(bench, seed, layout, |x| out.push(x));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::max_duplicate_count;
    use pdm::Disk;

    fn layout4(node: usize, len: u64) -> Layout {
        Layout {
            node,
            p: 4,
            len,
            offset: node as u64 * len,
            total: 4 * len,
        }
    }

    #[test]
    fn deterministic_per_seed_and_node() {
        for bench in Benchmark::ALL {
            let a = generate_block(bench, 7, layout4(1, 500));
            let b = generate_block(bench, 7, layout4(1, 500));
            assert_eq!(a, b, "{bench} not deterministic");
            let c = generate_block(bench, 8, layout4(1, 500));
            if !matches!(
                bench,
                Benchmark::Zero | Benchmark::Sorted | Benchmark::ReverseSorted
            ) {
                assert_ne!(a, c, "{bench} ignored the seed");
            }
        }
    }

    #[test]
    fn lengths_respected() {
        for bench in Benchmark::ALL {
            assert_eq!(generate_block(bench, 1, layout4(0, 123)).len(), 123);
            assert_eq!(generate_block(bench, 1, layout4(3, 0)).len(), 0);
        }
    }

    #[test]
    fn sorted_is_globally_sorted_across_nodes() {
        let shares = [100u64, 100, 400, 400]; // heterogeneous shares
        let whole = generate_whole(Benchmark::Sorted, 3, &shares);
        assert!(whole.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(whole.len(), 1000);
    }

    #[test]
    fn reverse_sorted_is_globally_descending() {
        let whole = generate_whole(Benchmark::ReverseSorted, 3, &[250, 250, 250, 250]);
        assert!(whole.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn hot_key_holds_three_tenths() {
        let block = generate_block(Benchmark::HotKey, 4, layout4(1, 20_000));
        let hot = block.iter().filter(|&&x| x == HOT_KEY).count();
        assert!((5_700..6_300).contains(&hot), "{hot} hot records of 20000");
        assert_eq!(max_duplicate_count(&block), hot as u64);
    }

    #[test]
    fn zero_is_constant() {
        let block = generate_block(Benchmark::Zero, 1, layout4(2, 100));
        assert!(block.iter().all(|&x| x == block[0]));
    }

    #[test]
    fn staggered_block_fits_one_slab() {
        for node in 0..4 {
            let block = generate_block(Benchmark::Staggered, 5, layout4(node, 1000));
            let width = (1u64 << 32) / 4;
            let slab = block[0] as u64 / width;
            assert!(
                block.iter().all(|&x| x as u64 / width == slab),
                "node {node} leaked outside its slab"
            );
        }
    }

    #[test]
    fn staggered_slabs_cover_everything() {
        // The staggered permutation must hit all p slabs across nodes.
        let width = (1u64 << 32) / 4;
        let mut seen = std::collections::HashSet::new();
        for node in 0..4 {
            let block = generate_block(Benchmark::Staggered, 5, layout4(node, 10));
            seen.insert(block[0] as u64 / width);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn bucket_sorted_block_is_ascending_by_slab() {
        let block = generate_block(Benchmark::BucketSorted, 6, layout4(1, 400));
        let width = (1u64 << 32) / 4;
        let slabs: Vec<u64> = block.iter().map(|&x| x as u64 / width).collect();
        assert!(
            slabs.windows(2).all(|w| w[0] <= w[1]),
            "slabs not ascending"
        );
        assert_eq!(slabs.first(), Some(&0));
        assert_eq!(slabs.last(), Some(&3));
    }

    #[test]
    fn gaussian_concentrates_in_middle() {
        let block = generate_block(Benchmark::Gaussian, 7, layout4(0, 10_000));
        let mid = block
            .iter()
            .filter(|&&x| (1u64 << 30) as u32 <= x && x <= (3u64 << 30) as u32)
            .count();
        // For a sum of 4 uniforms, ~96% lies in the middle half.
        assert!(mid as f64 / 10_000.0 > 0.9, "only {mid} in middle half");
    }

    #[test]
    fn zipf_has_heavy_duplicates_uniform_does_not() {
        let zipf = generate_block(Benchmark::ZipfDuplicates, 9, layout4(0, 10_000));
        let unif = generate_block(Benchmark::Uniform, 9, layout4(0, 10_000));
        assert!(max_duplicate_count(&zipf) > 500);
        assert!(max_duplicate_count(&unif) < 10);
    }

    #[test]
    fn ggroup_blocks_confined_to_group_slabs() {
        let p = 4;
        let g = 2u64;
        let width = (1u64 << 32) / p as u64;
        for node in 0..p {
            let block = generate_block(Benchmark::GGroup, 11, layout4(node, 500));
            let group = node as u64 / g;
            for &x in &block {
                let slab = x as u64 / width;
                assert!(
                    slab >= group * g && slab < (group + 1) * g,
                    "node {node} produced slab {slab} outside group {group}"
                );
            }
        }
    }

    #[test]
    fn disk_generation_matches_memory() {
        let disk = Disk::in_memory(64);
        let layout = layout4(2, 333);
        let n = generate_to_disk(&disk, "w", Benchmark::Uniform, 13, layout).unwrap();
        assert_eq!(n, 333);
        assert_eq!(
            disk.read_file::<u32>("w").unwrap(),
            generate_block(Benchmark::Uniform, 13, layout)
        );
    }

    #[test]
    fn cluster_layouts_partition_the_input() {
        let shares = [120u64, 360, 600];
        let layouts = Layout::cluster(&shares);
        assert_eq!(layouts.len(), 3);
        assert_eq!(layouts[0].offset, 0);
        assert_eq!(layouts[1].offset, 120);
        assert_eq!(layouts[2].offset, 480);
        assert!(layouts.iter().all(|l| l.total == 1080));
    }
}
