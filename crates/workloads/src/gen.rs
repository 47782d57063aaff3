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

/// Records [`generate_to_disk`] draws before each write: a 16 KiB buffer.
const BATCH: usize = 4096;

/// One node's block as a stream: [`Generator::fill`] hands out the block's
/// records in order, a buffer at a time, and draws exactly what one
/// record-at-a-time loop over the block would, whatever the buffer sizes.
pub(crate) struct Generator {
    bench: Benchmark,
    layout: Layout,
    rng: Pcg64,
    /// Index within the block of the next record.
    next: u64,
    /// The rank sampler of [`Benchmark::ZipfDuplicates`].
    zipf: Option<Zipf>,
}

impl Generator {
    /// The generator of node `layout.node`'s block for `bench`.
    pub(crate) fn new(bench: Benchmark, seed: u64, layout: Layout) -> Generator {
        let rng = Pcg64::with_stream(
            seed ^ SplitMix64::mix(bench.id() as u64),
            layout.node as u64,
        );
        let zipf = (bench == Benchmark::ZipfDuplicates)
            .then(|| Zipf::new(4096.min(layout.total.max(1)) as usize, 1.1));
        Generator {
            bench,
            layout,
            rng,
            next: 0,
            zipf,
        }
    }

    /// Records of the block not yet handed out.
    pub(crate) fn remaining(&self) -> u64 {
        self.layout.len - self.next
    }

    /// Writes the block's next records to the front of `out` and returns
    /// how many: `out.len()`, or fewer once the block runs out.
    pub(crate) fn fill(&mut self, out: &mut [u32]) -> usize {
        let m = (out.len() as u64).min(self.remaining()) as usize;
        let out = &mut out[..m];
        let (first, len) = (self.next, self.layout.len);
        self.next += m as u64;
        let rng = &mut self.rng;
        let p = self.layout.p.max(1) as u64;
        // Key-range width when the key space is cut into p slabs.
        let width = (1u64 << 32) / p;
        // Index within the block of each record of `out`.
        let at = (first..).zip(out.iter_mut());
        match self.bench {
            Benchmark::Uniform => out.iter_mut().for_each(|x| *x = rng.next_u32()),
            Benchmark::Gaussian => {
                // Average of four uniforms (Helman–JáJá–Bader's [G] input).
                for x in out {
                    let s: u64 = (0..4).map(|_| rng.next_u32() as u64).sum();
                    *x = (s / 4) as u32;
                }
            }
            Benchmark::Zero => out.fill(0xBEEF),
            Benchmark::BucketSorted => {
                // The block ascends through all p slabs: record j sits in slab
                // floor(j·p/len), uniformly within the slab.
                for (j, x) in at {
                    // `j < len`, so the division is safe.
                    let slab = j * p / len;
                    *x = (slab * width + rng.below(width.max(1))) as u32;
                }
            }
            Benchmark::GGroup => {
                // Nodes form groups of g = max(2, p/2); a block only carries
                // keys from its own group's slabs, cycling among them.
                let g = (p / 2).max(2).min(p);
                let group = self.layout.node as u64 / g;
                for (j, x) in at {
                    let slab = (group * g + (j % g)) % p;
                    *x = (slab * width + rng.below(width.max(1))) as u32;
                }
            }
            Benchmark::Staggered => {
                // Node i holds exactly one slab, chosen by the staggered
                // permutation: i < p/2 → slab 2i+1, else slab 2(i − p/2).
                let i = self.layout.node as u64;
                let slab = if i < p / 2 {
                    2 * i + 1
                } else {
                    2 * (i - p / 2)
                } % p;
                for x in out {
                    *x = (slab * width + rng.below(width.max(1))) as u32;
                }
            }
            Benchmark::Sorted => {
                for (j, x) in at {
                    *x = global_rank_key(self.layout.offset + j, self.layout.total);
                }
            }
            Benchmark::ReverseSorted => {
                for (j, x) in at {
                    let g = self.layout.offset + j;
                    *x = global_rank_key(self.layout.total - 1 - g, self.layout.total);
                }
            }
            Benchmark::ZipfDuplicates => {
                let zipf = self.zipf.as_ref().expect("built for zipf");
                for x in out {
                    let rank = zipf.sample(rng) as u64;
                    // Spread the distinct keys over the key space (order
                    // destroyed on purpose — only multiplicity matters).
                    *x = SplitMix64::mix(rank) as u32;
                }
            }
            Benchmark::HotKey => {
                for x in out {
                    let key = rng.next_u32();
                    *x = if rng.below(10) < 3 { HOT_KEY } else { key };
                }
            }
        }
        m
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
    let mut out = vec![0; layout.len as usize];
    Generator::new(bench, seed, layout).fill(&mut out);
    out
}

/// Generates one node's block straight onto a disk file, one batch of
/// records per [`pdm::BlockWriter::push_all`] (never holding more than the
/// batch and a block buffer), and stops at the first write error.
pub fn generate_to_disk(
    disk: &Disk,
    name: &str,
    bench: Benchmark,
    seed: u64,
    layout: Layout,
) -> PdmResult<u64> {
    let mut writer = disk.create_writer::<u32>(name)?;
    let mut gen = Generator::new(bench, seed, layout);
    let mut batch = vec![0; BATCH.min(layout.len as usize)];
    while gen.remaining() > 0 {
        let m = gen.fill(&mut batch);
        writer.push_all(&batch[..m])?;
    }
    writer.finish()
}

/// Generates the whole input (all nodes concatenated) into memory — for
/// tests and single-node experiments.
pub fn generate_whole(bench: Benchmark, seed: u64, shares: &[u64]) -> Vec<u32> {
    let mut out = vec![0; shares.iter().sum::<u64>() as usize];
    let mut rest = &mut out[..];
    for layout in Layout::cluster(shares) {
        let (block, tail) = rest.split_at_mut(layout.len as usize);
        Generator::new(bench, seed, layout).fill(block);
        rest = tail;
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

    /// Every benchmark written to disk, in batches, equals its in-memory
    /// block byte for byte and meters exactly what a `push` loop of the
    /// same records meters.
    #[test]
    fn disk_generation_matches_memory() {
        for bench in Benchmark::ALL {
            for block_bytes in [64, 4096] {
                for len in [0, 1, 333, 3 * BATCH as u64 + 5] {
                    let layout = layout4(2, len);
                    let block = generate_block(bench, 13, layout);
                    let disk = Disk::in_memory(block_bytes);
                    let n = generate_to_disk(&disk, "w", bench, 13, layout).unwrap();
                    assert_eq!(n, len);
                    assert_eq!(disk.read_file::<u32>("w").unwrap(), block, "{bench} {len}");

                    let pushed = Disk::in_memory(block_bytes);
                    let mut w = pushed.create_writer::<u32>("w").unwrap();
                    for &x in &block {
                        w.push(x).unwrap();
                    }
                    w.finish().unwrap();
                    let (a, b) = (disk.stats().snapshot(), pushed.stats().snapshot());
                    assert_eq!(
                        (a.blocks_written, a.bytes_written),
                        (b.blocks_written, b.bytes_written),
                        "{bench} {len} at {block_bytes} B blocks"
                    );
                }
            }
        }
    }

    /// Filling a block in buffers of any size draws the block's records.
    #[test]
    fn fill_is_independent_of_the_buffer_size() {
        for bench in Benchmark::ALL {
            let layout = layout4(1, 1000);
            let block = generate_block(bench, 21, layout);
            for size in [1, 7, 999, 1000, 1001] {
                let mut gen = Generator::new(bench, 21, layout);
                let mut buf = vec![0; size];
                let mut got = Vec::new();
                while gen.remaining() > 0 {
                    let m = gen.fill(&mut buf);
                    got.extend_from_slice(&buf[..m]);
                }
                assert_eq!(gen.fill(&mut buf), 0);
                assert_eq!(got, block, "{bench} in buffers of {size}");
            }
        }
    }

    fn checksum(xs: &[u32]) -> u64 {
        xs.iter()
            .fold(xs.len() as u64, |h, &x| SplitMix64::mix(h ^ x as u64))
    }

    /// Pins every generator's output. The checksums come from a
    /// record-at-a-time generator that drew zipf ranks by the formula
    /// alone, so any change to any draw fails here.
    #[test]
    fn generated_inputs_are_pinned() {
        // p = 4 heterogeneous with lengths off the batch size, p = 2 with
        // fewer than 4096 distinct zipf keys, and a single record.
        let mut layouts = Layout::cluster(&[333, 1_000, 4_097, 10_007]);
        layouts.extend(Layout::cluster(&[100, 300]));
        layouts.push(Layout::single(1));
        #[rustfmt::skip]
        let pins: [(Benchmark, [u64; 7]); 10] = [
            (Benchmark::Uniform, [
                0x68062ceb27fe0bce, 0xdbfebe35271a301e, 0x58345389adfd7e69, 0x14b027557516d228,
                0x67c76e462607d0bf, 0xfdbe65496c859dc3, 0xde3c9c96c35084e3,
            ]),
            (Benchmark::Gaussian, [
                0x8682ed9d3ad98116, 0xd45dfccbd900964e, 0xc3a78ed86a1a04b4, 0x078736712e11064c,
                0x8c54971f551412aa, 0x4ae8709927aeb131, 0xe0808f3a7f76ec64,
            ]),
            (Benchmark::Zero, [
                0xd16c4f19670a1bd2, 0xfa347eefde8eb0df, 0x66a3eef7099aca09, 0x6000aba6d84b2ad9,
                0x25e19d873d038c2d, 0xc19a662b2699a581, 0xa718097e4f16dca5,
            ]),
            (Benchmark::BucketSorted, [
                0x9f714ee84de6d20e, 0x0a22cefe707047bc, 0x08223ce15eecc309, 0xc359c908096a9182,
                0x7c174fc310977098, 0xacbdea1b9e6fe0a9, 0x49a55ccdb262ec2a,
            ]),
            (Benchmark::GGroup, [
                0x1ea4ce719f2bc9c7, 0xabb1fabedf03f617, 0xef6cb6cc96ceef98, 0x894eb9d4231e3609,
                0x39f25ffbcdab5c00, 0x42df9dad1d4a1241, 0x4c05e0e0f57845f1,
            ]),
            (Benchmark::Staggered, [
                0x638aae04d28d1dd6, 0x5fbe6ccc82cb8adb, 0x87f19747b4f7906f, 0x25a0fa2e4f8912eb,
                0xaa7e2cd3351dedbf, 0x67ab783afb532e72, 0x69a33ec5381c7e3b,
            ]),
            (Benchmark::Sorted, [
                0x94c5a91cc28fe8bd, 0xf533b7a3abd6027e, 0x7b91fed299ee2d27, 0xced1617ac4984c8a,
                0xd1680323aeef21f5, 0x6f8dd1986b81abe5, 0x910a2dec89025cc1,
            ]),
            (Benchmark::ReverseSorted, [
                0xfbd76c43dad60f7c, 0x1b3065621b02ea1b, 0x654bc6e9c6fc3789, 0xaede887560a74957,
                0x7c3c1c618725a772, 0x5ce4ee722705282c, 0x910a2dec89025cc1,
            ]),
            (Benchmark::ZipfDuplicates, [
                0x11e038e80ea07182, 0x445f511e46dc2640, 0x326356fd4fa5b358, 0x6a79667a9bccbb91,
                0x84be6d611fe6fe2c, 0x9cc652d7f7e8a769, 0xc828b29394df344c,
            ]),
            (Benchmark::HotKey, [
                0x2b2cfcaa023e48e7, 0xdaf117bc47ccb290, 0xc1341a0b11549059, 0x7a66d62cb7558534,
                0xfcf2d1f31ddfa379, 0x8b7323406dc40311, 0x490b294e5e5d6b60,
            ]),
        ];
        for (bench, sums) in pins {
            for (layout, want) in layouts.iter().zip(sums) {
                let got = checksum(&generate_block(bench, 0x5EED, *layout));
                assert_eq!(got, want, "{bench} at {layout:?}: {got:#018x}");
            }
        }
        // 160,000 zipf records: node 2 of the 1:1:4:4 cluster.
        let big = Layout::cluster(&[40_000, 40_000, 160_000, 160_000])[2];
        let block = generate_block(Benchmark::ZipfDuplicates, 11, big);
        assert_eq!(checksum(&block), 0xc8eb2ef69f8dcdaf);
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
