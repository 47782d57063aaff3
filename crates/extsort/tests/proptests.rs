//! Property tests for the external-sorting machinery.

#![cfg(feature = "proptests")]
// Requires the `proptest` dev-dependency, not vendored offline; see README.

use proptest::collection::vec;
use proptest::prelude::*;

use extsort::run_formation::Distributor;
use extsort::stream::Bounded;
use extsort::{
    fingerprint_slice, merge_sorted_files_kernel, LoserTree, PipelineConfig, RecordStream,
    SliceStream, SortKernel,
};
use pdm::Disk;

/// Drains any stream into a vector.
fn drain<S: RecordStream<u32>>(mut s: S) -> Vec<u32> {
    let mut out = Vec::new();
    while let Some(x) = s.next_record().unwrap() {
        out.push(x);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn loser_tree_equals_sorted_concat(runs in vec(vec(any::<u32>(), 0..100), 0..12)) {
        let sorted_runs: Vec<Vec<u32>> = runs
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.sort_unstable();
                r
            })
            .collect();
        let mut expect: Vec<u32> = sorted_runs.iter().flatten().copied().collect();
        expect.sort_unstable();
        let tree = LoserTree::new(
            sorted_runs.into_iter().map(SliceStream::new).collect(),
        )
        .unwrap();
        prop_assert_eq!(drain(tree), expect);
    }

    #[test]
    fn loser_tree_comparisons_near_nlogk(k in 2usize..32, per in 1usize..64) {
        let runs: Vec<Vec<u32>> = (0..k)
            .map(|s| (0..per).map(|i| (i * k + s) as u32).collect())
            .collect();
        let mut tree = LoserTree::new(runs.into_iter().map(SliceStream::new).collect()).unwrap();
        while tree.next_record().unwrap().is_some() {}
        let n = (k * per) as u64;
        let log2k = (usize::BITS - (k - 1).leading_zeros()) as u64;
        // Build costs ~k; each pop costs <= ceil(log2 k) (+1 slack for the
        // exhaustion comparisons at the end of each run).
        prop_assert!(tree.comparisons() <= k as u64 + n * (log2k + 1));
    }

    #[test]
    fn bounded_views_split_stream_exactly(data in vec(any::<u32>(), 0..200), cut in 0usize..200) {
        let cut = cut.min(data.len());
        let mut s = SliceStream::new(data.clone());
        let head = {
            let b = Bounded::new(&mut s, cut as u64);
            drain(b)
        };
        let tail = drain(s);
        prop_assert_eq!(head, &data[..cut]);
        prop_assert_eq!(tail, &data[cut..]);
    }

    #[test]
    fn distributor_layout_is_ideal_level(k in 2usize..8, runs in 1u64..300) {
        let mut d = Distributor::new(k);
        let mut actual = vec![0u64; k];
        for _ in 0..runs {
            actual[d.next_tape()] += 1;
        }
        let dummies = d.dummies();
        // The completed layout (real + dummies) must equal the targeted
        // ideal level exactly.
        for j in 0..k {
            prop_assert_eq!(actual[j] + dummies[j], d.ideal()[j]);
        }
        prop_assert_eq!(actual.iter().sum::<u64>(), runs);
        // Ideal levels satisfy the generalized Fibonacci recurrence, hence
        // the distribution has at most one nonzero deficit per level jump.
        prop_assert!(d.ideal().iter().sum::<u64>() >= runs);
    }

    #[test]
    fn merge_sorted_files_is_correct(parts in vec(vec(any::<u32>(), 0..150), 1..6)) {
        let disk = Disk::in_memory(64);
        let mut names = Vec::new();
        let mut all: Vec<u32> = Vec::new();
        for (i, p) in parts.iter().enumerate() {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            all.extend(&sorted);
            let name = format!("part{i}");
            disk.write_file(&name, &sorted).unwrap();
            names.push(name);
        }
        let report = merge_sorted_files_kernel::<u32>(
            &disk,
            &names,
            "merged",
            &PipelineConfig::off(),
            SortKernel::default(),
        )
        .unwrap();
        prop_assert_eq!(report.records, all.len() as u64);
        let merged = disk.read_file::<u32>("merged").unwrap();
        prop_assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(fingerprint_slice(&merged), fingerprint_slice(&all));
    }

    #[test]
    fn sort_reports_are_consistent(data in vec(any::<u32>(), 1..2000), mem in 8usize..64) {
        let disk = Disk::in_memory(32);
        disk.write_file("in", &data).unwrap();
        let cfg = extsort::ExtSortConfig::new(mem.max(4 * 8)).with_tapes(4);
        let report = extsort::polyphase_sort::<u32>(&disk, "in", "out", "x", &cfg).unwrap();
        prop_assert_eq!(report.records, data.len() as u64);
        prop_assert_eq!(
            report.initial_runs,
            (data.len() as u64).div_ceil(cfg.mem_records as u64)
        );
        // Every pass reads and writes each record at most once; phases are
        // bounded by the Fibonacci growth of the run count.
        prop_assert!(report.io.bytes_written >= data.len() as u64 * 4);
        prop_assert!(report.merge_phases < 64);
    }
}
