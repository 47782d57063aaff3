//! Differential tests: range-partitioned parallel merging must be
//! *observationally identical* to the sequential loser tree — byte-identical
//! output files for every worker count, and identical streaming I/O (the
//! parallel path may only add metered *seeking* reads: splitter probes and
//! boundary-block prefills, both broken out by `random_reads`/`seek_bytes`).
//!
//! Coverage: the full polyphase sort and the balanced k-way sort across all
//! nine workload distributions, and the single-pass multiway merge across
//! block sizes — every merge call site the `merge_workers` knob reaches.

use extsort::{
    balanced_kway_sort, merge_sorted_files_kernel, polyphase_sort, ExtSortConfig, PipelineConfig,
    SortKernel, SortReport,
};
use pdm::{Disk, IoSnapshot, PdmResult, Record};
use workloads::{generate_block, Benchmark, Layout};

const MERGE_WORKERS: [usize; 3] = [1, 2, 4];

/// The I/O a merge performs net of seeking reads: parallel merging adds
/// probes and prefills (metered as `random_reads`/`seek_bytes`, included in
/// the read totals), but the streaming traffic and every write must match
/// the sequential oracle exactly.
fn non_seek(io: &IoSnapshot) -> (u64, u64, u64, u64, u64) {
    (
        io.blocks_read - io.random_reads,
        io.bytes_read - io.seek_bytes,
        io.blocks_written,
        io.bytes_written,
        io.files_created,
    )
}

/// Runs `f` on a fresh in-memory disk pre-loaded with `data` under `in`,
/// returning the I/O delta it produced.
fn metered<R: Record, T>(
    block_bytes: usize,
    data: &[R],
    f: impl FnOnce(&Disk) -> T,
) -> (Disk, T, IoSnapshot) {
    let disk = Disk::in_memory(block_bytes);
    disk.write_file("in", data).unwrap();
    let before = disk.stats().snapshot();
    let out = f(&disk);
    let delta = disk.stats().snapshot().delta(&before);
    (disk, out, delta)
}

#[test]
fn polyphase_parallel_identical_all_distributions() {
    for bench in Benchmark::ALL {
        let data = generate_block(bench, 31, Layout::single(2_000));
        let cfg_seq = ExtSortConfig::new(64).with_tapes(4);
        let (d_seq, r_seq, io_seq) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_seq).unwrap()
        });
        for &w in &MERGE_WORKERS {
            let cfg_par = cfg_seq.clone().with_merge_workers(w);
            let (d_par, r_par, io_par) = metered(64, &data, |d| {
                polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_par).unwrap()
            });
            assert_eq!(
                d_seq.read_file::<u32>("out").unwrap(),
                d_par.read_file::<u32>("out").unwrap(),
                "{bench}, workers {w}: outputs differ"
            );
            assert_eq!(r_par.records, r_seq.records);
            assert_eq!(r_par.initial_runs, r_seq.initial_runs);
            assert_eq!(r_par.merge_phases, r_seq.merge_phases);
            assert_eq!(
                non_seek(&io_par),
                non_seek(&io_seq),
                "{bench}, workers {w}: non-seek I/O differs"
            );
        }
    }
}

#[test]
fn balanced_kway_parallel_identical_all_distributions() {
    for bench in Benchmark::ALL {
        let data = generate_block(bench, 32, Layout::single(3_000));
        let cfg_seq = ExtSortConfig::new(160).with_tapes(8);
        let (d_seq, r_seq, io_seq) = metered(64, &data, |d| {
            balanced_kway_sort::<u32>(d, "in", "out", "kw", &cfg_seq).unwrap()
        });
        for &w in &MERGE_WORKERS {
            let cfg_par = cfg_seq.clone().with_merge_workers(w);
            let (d_par, r_par, io_par) = metered(64, &data, |d| {
                balanced_kway_sort::<u32>(d, "in", "out", "kw", &cfg_par).unwrap()
            });
            assert_eq!(
                d_seq.read_file::<u32>("out").unwrap(),
                d_par.read_file::<u32>("out").unwrap(),
                "{bench}, workers {w}: outputs differ"
            );
            assert_eq!(r_par.records, r_seq.records);
            assert_eq!(r_par.initial_runs, r_seq.initial_runs);
            assert_eq!(
                non_seek(&io_par),
                non_seek(&io_seq),
                "{bench}, workers {w}: non-seek I/O differs"
            );
        }
    }
}

#[test]
fn single_pass_merge_parallel_identical_across_blocks() {
    // Three interleaved sorted inputs, merged in one pass (the PSRS step-5
    // call site) across block sizes, kernels and worker counts.
    let inputs: Vec<Vec<u32>> = (0..3u32)
        .map(|k| (0..500).map(|i| i * 3 + k).collect())
        .collect();
    let names: Vec<String> = (0..3).map(|i| format!("in{i}")).collect();
    let setup = |d: &Disk| {
        for (i, v) in inputs.iter().enumerate() {
            d.write_file(&format!("in{i}"), v).unwrap();
        }
    };
    for &bb in &[64usize, 256, 1024] {
        let d_seq = Disk::in_memory(bb);
        setup(&d_seq);
        let before = d_seq.stats().snapshot();
        let r_seq = merge_sorted_files_kernel::<u32>(
            &d_seq,
            &names,
            "out",
            &PipelineConfig::off(),
            SortKernel::default(),
        )
        .unwrap();
        let io_seq = d_seq.stats().snapshot().delta(&before);
        for &w in &MERGE_WORKERS {
            for kernel in [SortKernel::Radix, SortKernel::Comparison] {
                let pipe = PipelineConfig::off().with_merge_workers(w);
                let d_par = Disk::in_memory(bb);
                setup(&d_par);
                let before = d_par.stats().snapshot();
                let r_par =
                    merge_sorted_files_kernel::<u32>(&d_par, &names, "out", &pipe, kernel).unwrap();
                let io_par = d_par.stats().snapshot().delta(&before);
                assert_eq!(
                    d_seq.read_file::<u32>("out").unwrap(),
                    d_par.read_file::<u32>("out").unwrap(),
                    "block {bb}, workers {w}, {kernel:?}: outputs differ"
                );
                assert_eq!(r_par.records, r_seq.records);
                assert_eq!(
                    non_seek(&io_par),
                    non_seek(&io_seq),
                    "block {bb}, workers {w}, {kernel:?}: non-seek I/O differs"
                );
            }
        }
    }
}

#[test]
fn parallel_merge_composes_with_pipeline() {
    // Both knobs on at once: pipelined I/O + range-partitioned merge CPU,
    // for every sorter whose merge passes write through the pipeline.
    type Sorter = fn(&Disk, &str, &str, &str, &ExtSortConfig) -> PdmResult<SortReport>;
    let sorters: [(&str, Sorter); 2] = [
        ("polyphase", polyphase_sort::<u32>),
        ("balanced", balanced_kway_sort::<u32>),
    ];
    let data = generate_block(Benchmark::Gaussian, 33, Layout::single(2_500));
    for (name, sort) in sorters {
        let cfg_seq = ExtSortConfig::new(64).with_tapes(4);
        let (d_seq, _, io_seq) =
            metered(64, &data, |d| sort(d, "in", "out", "pp", &cfg_seq).unwrap());
        // Range partitioning changes the select count (each worker's tree
        // primes separately), so the pipeline-off run with the same merge
        // workers is the oracle for selects and the full I/O snapshot.
        let cfg_par = cfg_seq.clone().with_merge_workers(4);
        let (_, r_par, io_par) =
            metered(64, &data, |d| sort(d, "in", "out", "pp", &cfg_par).unwrap());
        let cfg_both = cfg_seq
            .clone()
            .with_pipeline(PipelineConfig::with_workers(2).with_merge_workers(4));
        let (d_both, r_both, io_both) = metered(64, &data, |d| {
            sort(d, "in", "out", "pp", &cfg_both).unwrap()
        });
        assert_eq!(
            d_seq.read_file::<u32>("out").unwrap(),
            d_both.read_file::<u32>("out").unwrap(),
            "{name}: outputs differ"
        );
        assert_eq!(non_seek(&io_both), non_seek(&io_seq), "{name}");
        assert_eq!(io_both, io_par, "{name}: pipelining changed the I/O");
        assert_eq!(r_both.comparisons, r_par.comparisons, "{name}");
        assert_eq!(r_both.key_ops, r_par.key_ops, "{name}");
    }
}

#[test]
fn parallel_merge_handles_empty_and_tiny_inputs() {
    for n in [0u64, 1, 5, 65] {
        let data = generate_block(Benchmark::Uniform, 34, Layout::single(n));
        let cfg_seq = ExtSortConfig::new(64).with_tapes(4);
        let (d_seq, _, _) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_seq).unwrap()
        });
        let cfg_par = cfg_seq.clone().with_merge_workers(4);
        let (d_par, _, _) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_par).unwrap()
        });
        assert_eq!(
            d_seq.read_file::<u32>("out").unwrap(),
            d_par.read_file::<u32>("out").unwrap(),
            "n = {n}"
        );
    }
}
