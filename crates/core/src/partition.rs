//! Partitioning sorted data at the pivots.
//!
//! Records `x` with `x <= pivot[0]` go to partition 0, `pivot[j-1] < x <=
//! pivot[j]` to partition `j`, and everything above the last pivot to
//! partition `p−1`. For *sorted* data the partitions are contiguous ranges,
//! found by binary search in-core ([`partition_ranges`]) or by a single
//! streaming pass out-of-core ([`partition_file_streaming`] — the paper's
//! step 3, `2·Q/B` I/Os) that cuts each block at the pivots with one
//! binary search per partition boundary it holds and moves whole slices.
//! The `_tiebreak` forms place a record *equal* to a pivot by its index
//! against a per-pivot limit, so a run of one key can be cut anywhere.

use pdm::{BlockReader, Disk, PdmResult, Record};

/// Partition boundaries of a **sorted** slice: returns `p+1` cut indices
/// (`cuts[0] = 0`, `cuts[p] = len`); partition `j` is `data[cuts[j]..cuts[j+1]]`.
pub fn partition_ranges<R: Record>(sorted: &[R], pivots: &[R]) -> Vec<usize> {
    partition_ranges_tiebreak(sorted, pivots, &vec![u64::MAX; pivots.len()])
}

/// [`partition_ranges`] with per-pivot duplicate tie-breaking by position:
/// a record equal to `pivots[j]` stays left of cut `j` iff its index is
/// below `equal_limit[j]` (see [`crate::pivots::equal_limits`]; all
/// `u64::MAX` reproduces the plain `x <= pivot` rule, all `0` the
/// `x < pivot` one).
pub fn partition_ranges_tiebreak<R: Record>(
    sorted: &[R],
    pivots: &[R],
    equal_limit: &[u64],
) -> Vec<usize> {
    debug_assert!(sorted.is_sorted(), "data must be sorted");
    debug_assert!(pivots.is_sorted(), "pivots must be sorted");
    debug_assert_eq!(pivots.len(), equal_limit.len());
    let mut cuts = Vec::with_capacity(pivots.len() + 2);
    cuts.push(0);
    for (pv, &limit) in pivots.iter().zip(equal_limit) {
        let cut = left_len(sorted, 0, pv, limit);
        cuts.push(cut.max(*cuts.last().unwrap()));
    }
    cuts.push(sorted.len());
    cuts
}

/// How many leading records of the sorted `slice`, whose first record has
/// index `base`, stay left of the boundary at `(pivot, limit)`: every
/// record below the pivot, plus the equal ones with index `< limit`.
fn left_len<R: Record>(slice: &[R], base: u64, pivot: &R, limit: u64) -> usize {
    let lo = slice.partition_point(|x| x < pivot);
    let hi = lo + slice[lo..].partition_point(|x| x == pivot);
    limit.saturating_sub(base).clamp(lo as u64, hi as u64) as usize
}

/// Does `x`, at index `index`, route past the boundary at `(pivot,
/// limit)`? The per-record dual of the [`partition_ranges_tiebreak`]
/// rule: right iff `x > pivot`, or `x == pivot` and `index >= limit`.
pub fn routes_right<R: Record>(x: &R, index: u64, pivot: &R, limit: u64) -> bool {
    x > pivot || (x == pivot && index >= limit)
}

/// Comparison estimate for [`partition_ranges`]: one binary search per
/// pivot.
pub fn partition_comparisons(len: u64, pivots: usize) -> u64 {
    if len < 2 {
        return pivots as u64;
    }
    pivots as u64 * (64 - (len - 1).leading_zeros()) as u64
}

/// Splits a **sorted** disk file into `pivots.len() + 1` partition files
/// named `"{prefix}{j}"` with one streaming pass. Returns the partition
/// sizes.
pub fn partition_file_streaming<R: Record>(
    disk: &Disk,
    input: &str,
    prefix: &str,
    pivots: &[R],
) -> PdmResult<Vec<u64>> {
    partition_file_streaming_tiebreak(disk, input, prefix, pivots, &vec![u64::MAX; pivots.len()])
}

/// [`partition_file_streaming`] with per-pivot duplicate tie-breaking
/// (see [`partition_ranges_tiebreak`] for the limit semantics).
pub fn partition_file_streaming_tiebreak<R: Record>(
    disk: &Disk,
    input: &str,
    prefix: &str,
    pivots: &[R],
    equal_limit: &[u64],
) -> PdmResult<Vec<u64>> {
    debug_assert_eq!(pivots.len(), equal_limit.len());
    let p = pivots.len() + 1;
    let mut reader = disk.open_reader::<R>(input)?;
    let mut sizes = vec![0u64; p];
    let mut writers = (0..p)
        .map(|j| disk.create_writer::<R>(&format!("{prefix}{j}")))
        .collect::<PdmResult<Vec<_>>>()?;
    scan_cuts(&mut reader, pivots, equal_limit, |j, slice| {
        sizes[j] += slice.len() as u64;
        writers[j].push_all(slice)
    })?;
    for w in writers {
        w.finish()?;
    }
    Ok(sizes)
}

/// Streams the rest of a **sorted** file one block at a time and cuts each
/// block at the pivots: `emit(j, slice)` receives, in file order, maximal
/// slices whose records all belong to partition `j` (each record where
/// advancing past every pivot it [`routes_right`] of lands it, indices
/// counted from the reader's position). Reads are those of a
/// `next_record` scan; the sortedness precondition is debug-asserted
/// within and across blocks.
pub(crate) fn scan_cuts<R: Record>(
    reader: &mut BlockReader<R>,
    pivots: &[R],
    equal_limit: &[u64],
    mut emit: impl FnMut(usize, &[R]) -> PdmResult<()>,
) -> PdmResult<()> {
    let rpb = reader.records_per_block();
    let mut block: Vec<R> = Vec::with_capacity(rpb);
    let mut prev: Option<R> = None;
    let mut dest = 0usize;
    let mut base = 0u64;
    loop {
        block.clear();
        if reader.read_into(&mut block, rpb)? == 0 {
            return Ok(());
        }
        debug_assert!(
            prev.iter().chain(&block).is_sorted(),
            "partition input {:?} is not sorted",
            reader.name()
        );
        prev = block.last().copied();
        let mut rest = block.as_slice();
        while let Some(first) = rest.first() {
            // Advance to the first partition whose pivot admits the
            // slice's first record, then find where that partition ends.
            while dest < pivots.len() && routes_right(first, base, &pivots[dest], equal_limit[dest])
            {
                dest += 1;
            }
            let len = match pivots.get(dest) {
                Some(pv) => left_len(rest, base, pv, equal_limit[dest]),
                None => rest.len(),
            };
            emit(dest, &rest[..len])?;
            rest = &rest[len..];
            base += len as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::Disk;

    #[test]
    fn ranges_basic() {
        let data: Vec<u32> = (0..10).collect(); // 0..9
        let cuts = partition_ranges(&data, &[2, 6]);
        // <=2 → [0,1,2]; <=6 → [3..6]; rest → [7,8,9].
        assert_eq!(cuts, vec![0, 3, 7, 10]);
    }

    #[test]
    fn ranges_with_duplicates_at_pivot() {
        let data = vec![1u32, 2, 2, 2, 3];
        let cuts = partition_ranges(&data, &[2]);
        // All the 2s go left of the cut (x <= pivot).
        assert_eq!(cuts, vec![0, 4, 5]);
    }

    #[test]
    fn ranges_extreme_pivots() {
        let data = vec![5u32, 6, 7];
        assert_eq!(partition_ranges(&data, &[0]), vec![0, 0, 3]);
        assert_eq!(partition_ranges(&data, &[100]), vec![0, 3, 3]);
        assert_eq!(partition_ranges(&data, &[]), vec![0, 3]);
    }

    #[test]
    fn ranges_empty_data() {
        let data: Vec<u32> = vec![];
        assert_eq!(partition_ranges(&data, &[1, 2]), vec![0, 0, 0, 0]);
    }

    #[test]
    fn ranges_equal_pivots_make_empty_middle() {
        let data: Vec<u32> = (0..10).collect();
        let cuts = partition_ranges(&data, &[4, 4]);
        assert_eq!(cuts, vec![0, 5, 5, 10]);
    }

    #[test]
    fn streaming_matches_in_core() {
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = (0..100).map(|i| i * 2).collect();
        disk.write_file("in", &data).unwrap();
        let pivots = vec![30u32, 31, 120];
        let sizes = partition_file_streaming(&disk, "in", "part", &pivots).unwrap();
        let cuts = partition_ranges(&data, &pivots);
        for j in 0..4 {
            let expect = &data[cuts[j]..cuts[j + 1]];
            assert_eq!(
                disk.read_file::<u32>(&format!("part{j}")).unwrap(),
                expect,
                "partition {j}"
            );
            assert_eq!(sizes[j], expect.len() as u64);
        }
        assert_eq!(sizes.iter().sum::<u64>(), 100);
    }

    #[test]
    fn streaming_single_partition() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("in", &[1, 2, 3]).unwrap();
        let sizes = partition_file_streaming::<u32>(&disk, "in", "q", &[]).unwrap();
        assert_eq!(sizes, vec![3]);
        assert_eq!(disk.read_file::<u32>("q0").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn streaming_empty_file() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("in", &[]).unwrap();
        let sizes = partition_file_streaming::<u32>(&disk, "in", "e", &[5]).unwrap();
        assert_eq!(sizes, vec![0, 0]);
        assert!(disk.read_file::<u32>("e0").unwrap().is_empty());
        assert!(disk.read_file::<u32>("e1").unwrap().is_empty());
    }

    #[test]
    fn tiebreak_limits_split_duplicate_runs_by_position() {
        let data = vec![1u32, 2, 2, 2, 3];
        // Limit 0: the 2s route right of the cut; u64::MAX: the flat rule.
        assert_eq!(partition_ranges_tiebreak(&data, &[2], &[0]), vec![0, 1, 5]);
        assert_eq!(
            partition_ranges_tiebreak(&data, &[2], &[u64::MAX]),
            partition_ranges(&data, &[2])
        );
        // Limit 3: the 2s at indices 1 and 2 stay left, index 3 goes right.
        assert_eq!(partition_ranges_tiebreak(&data, &[2], &[3]), vec![0, 3, 5]);
        // Equal pivots with limits (2, 4): the run splits 1 | 2 | 0.
        assert_eq!(
            partition_ranges_tiebreak(&data, &[2, 2], &[2, 4]),
            vec![0, 2, 4, 5]
        );
    }

    #[test]
    fn streaming_tiebreak_matches_in_core() {
        // 4-record blocks, so the 5-run and its cut straddle a boundary.
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = vec![0, 5, 5, 5, 5, 5, 9, 9, 12];
        disk.write_file("in", &data).unwrap();
        let pivots = vec![5u32, 5, 9];
        let limit = vec![2, 5, u64::MAX];
        let sizes = partition_file_streaming_tiebreak(&disk, "in", "t", &pivots, &limit).unwrap();
        let cuts = partition_ranges_tiebreak(&data, &pivots, &limit);
        assert_eq!(cuts, vec![0, 2, 5, 8, 9]);
        for j in 0..4 {
            assert_eq!(
                disk.read_file::<u32>(&format!("t{j}")).unwrap(),
                &data[cuts[j]..cuts[j + 1]],
                "partition {j}"
            );
            assert_eq!(sizes[j] as usize, cuts[j + 1] - cuts[j]);
        }
    }

    #[test]
    fn comparison_estimate() {
        assert_eq!(partition_comparisons(1024, 3), 3 * 10);
        assert_eq!(partition_comparisons(0, 3), 3);
    }
}
