//! Properties of bounded stream views, the polyphase distributor, the
//! multiway file merge and the polyphase sort's report, each over cases
//! drawn from a fixed-seed [`sim::Pcg64`]: a failure reproduces exactly and
//! names its case. `select_count` pins the loser tree's output and select
//! count.

use std::iter::from_fn;

use extsort::run_formation::Distributor;
use extsort::stream::Bounded;
use extsort::{fingerprint_slice, merge_sorted_files_kernel, ExtSortConfig, PipelineConfig};
use extsort::{RecordStream, SliceStream, SortKernel};
use pdm::Disk;
use sim::rng::Rng;
use sim::Pcg64;

const CASES: usize = 128;

/// Up to `max_len - 1` uniform `u32`s.
fn u32s(rng: &mut Pcg64, max_len: usize) -> Vec<u32> {
    let len = rng.below_usize(max_len);
    (0..len).map(|_| rng.next_u32()).collect()
}

#[test]
fn bounded_views_split_stream_exactly() {
    let mut rng = Pcg64::new(0xE575_0001);
    for case in 0..CASES {
        let data = u32s(&mut rng, 200);
        let cut = rng.below_usize(200).min(data.len());
        let mut s = SliceStream::new(data.clone());
        let (mut head, mut tail) = (Vec::new(), Vec::new());
        // Drain the view record by record (batch 0) or in batches of 1–7.
        let batch = rng.below_usize(8);
        let mut view = Bounded::new(&mut s, cut as u64);
        if batch == 0 {
            head.extend(from_fn(|| view.next_record().unwrap()));
        }
        while view.next_batch(&mut head, batch.max(1)).unwrap() > 0 {}
        s.next_batch(&mut tail, usize::MAX).unwrap();
        let what = format!("case {case}: cut {cut} of {data:?}, batch {batch}");
        assert_eq!((&head[..], &tail[..]), data.split_at(cut), "{what}");
    }
}

#[test]
fn distributor_layout_is_ideal_level() {
    let mut rng = Pcg64::new(0xE575_0002);
    for case in 0..CASES {
        let (k, runs) = (2 + rng.below_usize(6), 1 + rng.below(299));
        let mut d = Distributor::new(k).unwrap();
        let mut tapes = vec![0u64; k];
        for _ in 0..runs {
            tapes[d.next_tape()] += 1;
        }
        let what = format!("case {case}: k {k} runs {runs}: ideal {:?}", d.ideal());
        // The real runs plus the dummies complete the targeted level.
        for (t, dummies) in tapes.iter_mut().zip(d.dummies()) {
            *t += dummies;
        }
        assert_eq!(tapes, d.ideal(), "{what}");
        // An ideal level merges down to one run in `level` phases, each
        // merging onto the one empty tape as many runs as the shortest
        // input tape holds.
        tapes.push(0);
        let mut phases = 0;
        while tapes.iter().sum::<u64>() > 1 {
            let empty: Vec<usize> = (0..=k).filter(|&j| tapes[j] == 0).collect();
            assert_eq!(empty.len(), 1, "{what}: phase {phases} starts on {tapes:?}");
            let m = *tapes.iter().filter(|&&t| t > 0).min().unwrap();
            tapes.iter_mut().for_each(|t| *t = t.saturating_sub(m));
            tapes[empty[0]] = m;
            phases += 1;
        }
        assert_eq!(phases, d.level(), "{what}");
    }
}

#[test]
fn merge_sorted_files_is_correct() {
    let mut rng = Pcg64::new(0xE575_0003);
    for case in 0..CASES {
        let disk = Disk::in_memory(64);
        let parts = 1 + rng.below_usize(5);
        let names: Vec<String> = (0..parts).map(|i| format!("p{i}")).collect();
        let mut all: Vec<u32> = Vec::new();
        for name in &names {
            let mut part = u32s(&mut rng, 150);
            part.sort_unstable();
            disk.write_file(name, &part).unwrap();
            all.extend(part);
        }
        let off = PipelineConfig::off();
        let report =
            merge_sorted_files_kernel::<u32>(&disk, &names, "m", &off, SortKernel::default());
        let out = disk.read_file::<u32>("m").unwrap();
        let what = format!("case {case}: {parts} parts, {} records", all.len());
        assert_eq!(report.unwrap().records, all.len() as u64, "{what}");
        assert!(out.is_sorted(), "{what}");
        assert_eq!(fingerprint_slice(&out), fingerprint_slice(&all), "{what}");
    }
}

#[test]
fn sort_reports_are_consistent() {
    let mut rng = Pcg64::new(0xE575_0004);
    for case in 0..CASES {
        let mut data = u32s(&mut rng, 1999);
        data.push(rng.next_u32());
        let (n, mem) = (data.len() as u64, 32 + rng.below_usize(32));
        let disk = Disk::in_memory(32);
        disk.write_file("in", &data).unwrap();
        let cfg = ExtSortConfig::new(mem).with_tapes(4);
        let report = extsort::polyphase_sort::<u32>(&disk, "in", "out", "x", &cfg).unwrap();
        let what = format!("case {case}: {n} records, mem {mem}: {report:?}");
        assert_eq!(report.records, n, "{what}");
        assert_eq!(report.initial_runs, n.div_ceil(mem as u64), "{what}");
        // Every pass reads and writes each record at most once; phases are
        // bounded by the Fibonacci growth of the run count.
        assert!(report.io.bytes_written >= n * 4, "{what}");
        assert!(report.merge_phases < 64, "{what}");
    }
}
