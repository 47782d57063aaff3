//! Exhaustive sweep of the out-of-core partition pass (the paper's step 3)
//! against the in-core binary-search cuts.
//!
//! Every partition file must hold exactly the `partition_ranges_tiebreak`
//! slice, and the pass must cost its closed form: one sequential read per
//! input block, one write per (partial) block of each partition file, no
//! random reads. The sweep covers block sizes whose records-per-block does
//! not divide `n`, duplicate floods cut by position under every legal
//! `equal_limit` pattern, empty partitions, pivots outside the data's range,
//! both record layouts (`u32`, borrowed in place, and a record without a
//! borrowable layout, staged per block) and both storage backends.

use hetsort::partition::{partition_file_streaming_tiebreak, partition_ranges_tiebreak};
use pdm::{Disk, PdmResult, Record, ScratchDir};

/// A `u32` without a borrowable layout: `view_slice`/`view_bytes` keep
/// their `None` defaults, so every block goes through the staging copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Opaque(u32);

impl Record for Opaque {
    const SIZE: usize = 4;

    fn write_to(&self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.0.to_le_bytes());
    }

    fn read_from(buf: &[u8]) -> Self {
        Opaque(u32::from_le_bytes(buf.try_into().expect("4-byte record")))
    }
}

/// Partitions "in" (written as `u32`s) into `part{j}` files, reading it
/// as `u32`s or as [`Opaque`] records.
fn partition(disk: &Disk, opaque: bool, pivots: &[u32], limit: &[u64]) -> PdmResult<Vec<u64>> {
    if opaque {
        let pivots: Vec<Opaque> = pivots.iter().map(|&p| Opaque(p)).collect();
        partition_file_streaming_tiebreak(disk, "in", "part", &pivots, limit)
    } else {
        partition_file_streaming_tiebreak(disk, "in", "part", pivots, limit)
    }
}

/// Input shapes over `n` records; every one is sorted and lies in
/// `10..=60`, so pivot `0` sits below the minimum and `100` above the
/// maximum.
fn inputs(n: u32) -> Vec<(&'static str, Vec<u32>)> {
    vec![
        ("distinct", (0..n).map(|i| 10 + i * 50 / n.max(1)).collect()),
        // Three values, the middle one flooding most of the input.
        (
            "flood",
            (0..n)
                .map(|i| match i {
                    _ if i < n / 5 => 10,
                    _ if i < 4 * n / 5 => 30,
                    _ => 60,
                })
                .collect(),
        ),
        ("all-equal", vec![30; n as usize]),
    ]
}

/// Sorted pivot sets: below the minimum, above the maximum, on and
/// between data values, repeated (so some partitions are empty).
const PIVOT_SETS: &[&[u32]] = &[
    &[],
    &[0],
    &[100],
    &[30],
    &[0, 100],
    &[30, 30],
    &[10, 30, 60],
    &[30, 30, 30],
    &[20, 30, 30],
    &[0, 0, 45],
];

/// Every `equal_limit` pattern over none, half and all of an `n`-record
/// input that the splitters may produce for `pivots`: among equal pivots,
/// limits never decrease.
fn limit_patterns(pivots: &[u32], n: u32) -> Vec<Vec<u64>> {
    let mut values = vec![0, u64::from(n / 2), u64::MAX];
    values.dedup();
    let k = values.len();
    (0..k.pow(pivots.len() as u32))
        .map(|code| {
            (0..pivots.len())
                .map(|i| values[code / k.pow(i as u32) % k])
                .collect()
        })
        .filter(|limit: &Vec<u64>| {
            (1..pivots.len()).all(|i| pivots[i - 1] != pivots[i] || limit[i - 1] <= limit[i])
        })
        .collect()
}

#[test]
fn streaming_partition_matches_in_core_cuts_and_closed_form_io() {
    let scratch = ScratchDir::new("partition-sweep").unwrap();
    let mut cases = 0usize;
    let mut equal_pivot_split = false;
    let mut flood_split = false;
    // 4-byte records: 1, 3, 4 and 7 per block.
    for block_bytes in [4usize, 12, 16, 28] {
        let rpb = (block_bytes / 4) as u64;
        for opaque in [false, true] {
            let disks = [
                Disk::in_memory(block_bytes),
                Disk::on_files(scratch.path(), block_bytes),
            ];
            for disk in disks {
                for n in [0u32, 1, 5, 23, 97] {
                    for (shape, data) in inputs(n) {
                        disk.write_file("in", &data).unwrap();
                        for &pivots in PIVOT_SETS {
                            for limit in limit_patterns(pivots, n) {
                                let what = format!(
                                    "block {block_bytes} opaque {opaque} n {n} {shape} \
                                     pivots {pivots:?} limit {limit:?}"
                                );
                                let before = disk.stats().snapshot();
                                let sizes = partition(&disk, opaque, pivots, &limit).unwrap();
                                let io = disk.stats().snapshot().delta(&before);

                                let cuts = partition_ranges_tiebreak(&data, pivots, &limit);
                                assert_eq!(sizes.len(), pivots.len() + 1, "{what}");
                                for (j, &size) in sizes.iter().enumerate() {
                                    let expect = &data[cuts[j]..cuts[j + 1]];
                                    let name = format!("part{j}");
                                    assert_eq!(
                                        disk.read_file::<u32>(&name).unwrap(),
                                        expect,
                                        "{what}: partition {j}"
                                    );
                                    assert_eq!(size, expect.len() as u64, "{what}: size {j}");
                                    disk.remove(&name).unwrap();
                                }
                                let half = u64::from(n / 2);
                                equal_pivot_split |= shape == "all-equal"
                                    && limit == [0, u64::MAX]
                                    && sizes == [0, n as u64, 0];
                                flood_split |= shape == "all-equal"
                                    && n > 1
                                    && limit == [half, u64::MAX]
                                    && sizes == [half, n as u64 - half, 0];

                                assert_eq!(io.blocks_read, u64::from(n).div_ceil(rpb), "{what}");
                                let written: u64 = sizes.iter().map(|s| s.div_ceil(rpb)).sum();
                                assert_eq!(io.blocks_written, written, "{what}");
                                assert_eq!(io.random_reads, 0, "{what}");
                                cases += 1;
                            }
                        }
                        disk.remove("in").unwrap();
                    }
                }
            }
        }
    }
    assert!(
        equal_pivot_split,
        "equal pivots with limits (0, MAX) must route an all-equal input to the middle"
    );
    assert!(
        flood_split,
        "a limit of n/2 must cut an all-equal input at its middle record"
    );
    assert!(cases > 5000, "sweep shrank to {cases} cases");
}

/// The sortedness precondition is debug-asserted within each block and
/// across block boundaries.
#[cfg(debug_assertions)]
mod sortedness_check {
    use super::*;

    /// Runs the partition pass over `data` on 4-record blocks.
    fn partition_blocks_of_four(data: &[u32]) {
        let disk = Disk::in_memory(16);
        disk.write_file("in", data).unwrap();
        partition_file_streaming_tiebreak(&disk, "in", "part", &[100], &[u64::MAX]).unwrap();
    }

    #[test]
    #[should_panic(expected = "is not sorted")]
    fn inversion_inside_a_block_panics() {
        partition_blocks_of_four(&[0, 1, 3, 2, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "is not sorted")]
    fn inversion_across_a_block_boundary_panics() {
        // Each block is sorted on its own; only the boundary 5 → 4 is not.
        partition_blocks_of_four(&[0, 1, 2, 5, 4, 6, 7, 8]);
    }
}
