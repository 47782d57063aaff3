//! Differential tests: the pipelined execution engine must be
//! *observationally identical* to the sequential reference — byte-identical
//! output files AND identical metered block-I/O counters — across run
//! formation, the full polyphase sort, and the single-pass multiway merge,
//! for several worker counts and block sizes.
//!
//! The sequential path is the oracle: it existed first, it is simpler, and
//! every table reproduction runs through it. Pipelining is only allowed to
//! change *when* transfers happen, never *what* is transferred.

use extsort::run_formation::form_runs;
use extsort::{
    balanced_kway_sort, fingerprint_file, merge_sorted_files_kernel, polyphase_sort, ExtSortConfig,
    PipelineConfig, SortKernel, SortReport,
};
use pdm::record::KeyPayload;
use pdm::{Disk, IoSnapshot, PdmResult, Record};
use sim::rng::{Pcg64, Rng};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const BLOCK_BYTES: [usize; 3] = [64, 256, 1024];

/// An external sorter: `(disk, input, output, job, cfg)`.
type Sorter = fn(&Disk, &str, &str, &str, &ExtSortConfig) -> PdmResult<SortReport>;

/// Every sorter whose merge passes write through the pipeline.
const SORTERS: [(&str, Sorter); 2] = [
    ("polyphase", polyphase_sort::<u32>),
    ("balanced", balanced_kway_sort::<u32>),
];

fn random_u32(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Pcg64::new(seed);
    (0..n).map(|_| rng.next_u32()).collect()
}

fn random_kv(n: usize, seed: u64) -> Vec<KeyPayload> {
    let mut rng = Pcg64::new(seed);
    (0..n)
        .map(|_| KeyPayload::new(rng.next_u64(), rng.next_u64()))
        .collect()
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

/// Asserts two disks hold byte-identical files under `name`.
fn assert_same_bytes<R: Record>(a: &Disk, b: &Disk, name: &str) {
    assert_eq!(
        a.read_file::<R>(name).unwrap(),
        b.read_file::<R>(name).unwrap(),
        "file {name} differs between sequential and pipelined"
    );
}

#[test]
fn polyphase_identical_for_any_workers_and_blocks() {
    let data = random_u32(3000, 42);
    // The default radix kernel, and the comparison kernel the paper's
    // tables are priced on.
    for kernel in [SortKernel::Radix, SortKernel::Comparison] {
        for (name, sort) in SORTERS {
            for &bb in &BLOCK_BYTES {
                // Two blocks of buffering per tape, whatever the block size.
                let mem = 2 * 4 * (bb / 4);
                let cfg_seq = ExtSortConfig::new(mem).with_tapes(4).with_kernel(kernel);
                let (d_seq, r_seq, io_seq) =
                    metered(bb, &data, |d| sort(d, "in", "out", "pp", &cfg_seq).unwrap());
                for &w in &WORKER_COUNTS {
                    let cfg_pipe = cfg_seq
                        .clone()
                        .with_pipeline(PipelineConfig::with_workers(w));
                    let (d_pipe, r_pipe, io_pipe) = metered(bb, &data, |d| {
                        sort(d, "in", "out", "pp", &cfg_pipe).unwrap()
                    });
                    assert_eq!(
                        io_pipe, io_seq,
                        "{name}, {kernel:?}, block {bb}, workers {w}: I/O counters differ"
                    );
                    assert_eq!(r_pipe.records, r_seq.records);
                    assert_eq!(r_pipe.initial_runs, r_seq.initial_runs);
                    assert_eq!(r_pipe.merge_phases, r_seq.merge_phases);
                    assert_eq!(r_pipe.comparisons, r_seq.comparisons, "{name}, {kernel:?}");
                    assert_eq!(r_pipe.key_ops, r_seq.key_ops, "{name}, {kernel:?}");
                    assert_eq!(r_pipe.io, r_seq.io);
                    assert_same_bytes::<u32>(&d_seq, &d_pipe, "out");
                }
            }
        }
    }
}

#[test]
fn run_formation_identical_for_any_workers() {
    let data = random_u32(2500, 7);
    for &bb in &[64usize, 256] {
        let cfg_seq = ExtSortConfig::new(128).with_tapes(4);
        let (d_seq, f_seq, io_seq) = metered(bb, &data, |d| {
            form_runs::<u32>(d, "in", "rf", 3, &cfg_seq).unwrap()
        });
        for &w in &WORKER_COUNTS {
            let cfg_pipe = cfg_seq
                .clone()
                .with_pipeline(PipelineConfig::with_workers(w));
            let (d_pipe, f_pipe, io_pipe) = metered(bb, &data, |d| {
                form_runs::<u32>(d, "in", "rf", 3, &cfg_pipe).unwrap()
            });
            assert_eq!(
                io_pipe, io_seq,
                "block {bb}, workers {w}: I/O counters differ"
            );
            assert_eq!(f_pipe.records, f_seq.records);
            assert_eq!(f_pipe.total_runs, f_seq.total_runs);
            assert_eq!(f_pipe.comparisons, f_seq.comparisons);
            assert_eq!(f_pipe.tapes.len(), f_seq.tapes.len());
            for (a, b) in f_seq.tapes.iter().zip(&f_pipe.tapes) {
                assert_eq!(a.runs, b.runs, "run layout differs on tape {}", a.name);
                assert_same_bytes::<u32>(&d_seq, &d_pipe, &a.name);
            }
        }
    }
}

#[test]
fn merge_identical_for_any_workers_and_blocks() {
    // Three interleaved sorted inputs.
    let inputs: Vec<Vec<u32>> = (0..3u32)
        .map(|k| (0..400).map(|i| i * 3 + k).collect())
        .collect();
    for &bb in &BLOCK_BYTES {
        let setup = |d: &Disk| {
            for (i, v) in inputs.iter().enumerate() {
                d.write_file(&format!("in{i}"), v).unwrap();
            }
        };
        let names: Vec<String> = (0..3).map(|i| format!("in{i}")).collect();

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

        for &w in &WORKER_COUNTS {
            let pipe = PipelineConfig::with_workers(w);
            let d_pipe = Disk::in_memory(bb);
            setup(&d_pipe);
            let before = d_pipe.stats().snapshot();
            let r_pipe = merge_sorted_files_kernel::<u32>(
                &d_pipe,
                &names,
                "out",
                &pipe,
                SortKernel::default(),
            )
            .unwrap();
            let io_pipe = d_pipe.stats().snapshot().delta(&before);

            assert_eq!(
                io_pipe, io_seq,
                "block {bb}, workers {w}: I/O counters differ"
            );
            assert_eq!(r_pipe.records, r_seq.records);
            assert_eq!(r_pipe.comparisons, r_seq.comparisons);
            assert_eq!(r_pipe.io, r_seq.io);
            assert_same_bytes::<u32>(&d_seq, &d_pipe, "out");
        }
    }
}

#[test]
fn wide_records_identical() {
    // 16-byte records with non-total keys through pipelined run formation
    // and merging.
    let data = random_kv(1200, 99);
    let cfg_seq = ExtSortConfig::new(200).with_tapes(5);
    let (d_seq, r_seq, io_seq) = metered(256, &data, |d| {
        polyphase_sort::<KeyPayload>(d, "in", "out", "pp", &cfg_seq).unwrap()
    });
    let cfg_pipe = cfg_seq
        .clone()
        .with_pipeline(PipelineConfig::with_workers(3));
    let (d_pipe, r_pipe, io_pipe) = metered(256, &data, |d| {
        polyphase_sort::<KeyPayload>(d, "in", "out", "pp", &cfg_pipe).unwrap()
    });
    assert_eq!(io_pipe, io_seq, "I/O counters differ");
    assert_eq!(r_pipe.comparisons, r_seq.comparisons);
    assert_same_bytes::<KeyPayload>(&d_seq, &d_pipe, "out");
}

#[test]
fn replacement_selection_unaffected_by_pipeline_flag() {
    // Pipelined run formation only covers chunk sorting; with replacement
    // selection the flag must still produce the sequential result.
    use extsort::RunFormation;
    let data = random_u32(1500, 5);
    let cfg_seq = ExtSortConfig::new(128)
        .with_tapes(4)
        .with_run_formation(RunFormation::ReplacementSelection);
    let (d_seq, r_seq, io_seq) = metered(64, &data, |d| {
        polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_seq).unwrap()
    });
    let cfg_pipe = cfg_seq
        .clone()
        .with_pipeline(PipelineConfig::with_workers(4));
    let (d_pipe, r_pipe, io_pipe) = metered(64, &data, |d| {
        polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_pipe).unwrap()
    });
    assert_eq!(io_pipe, io_seq);
    assert_eq!(r_pipe.comparisons, r_seq.comparisons);
    assert_same_bytes::<u32>(&d_seq, &d_pipe, "out");
    assert_eq!(
        fingerprint_file::<u32>(&d_pipe, "out").unwrap(),
        fingerprint_file::<u32>(&d_seq, "out").unwrap()
    );
}

#[test]
fn pipelined_handles_empty_and_tiny_inputs() {
    for n in [0usize, 1, 5] {
        let data = random_u32(n, 3);
        let cfg_seq = ExtSortConfig::new(64).with_tapes(4);
        let (d_seq, _, io_seq) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_seq).unwrap()
        });
        let cfg_pipe = cfg_seq
            .clone()
            .with_pipeline(PipelineConfig::with_workers(2));
        let (d_pipe, _, io_pipe) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_pipe).unwrap()
        });
        assert_eq!(io_pipe, io_seq, "n = {n}");
        assert_same_bytes::<u32>(&d_seq, &d_pipe, "out");
    }
}

/// Records in the tests whose merge windows split: enough that a window
/// holds well over the split threshold.
const SPLIT_RECORDS: usize = 1 << 18;

/// Runs `f` with a tracer installed; returns its result and the number of
/// merge windows that were split across threads (`merge.window.split`).
fn counting_splits<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let tracer = obs::Obs::enabled();
    let guard = obs::install(tracer.clone());
    let out = f();
    drop(guard);
    let node = tracer.finish(0, "sort".to_string());
    let splits = node.metrics.counters.get("merge.window.split").copied();
    (out, splits.unwrap_or(0))
}

#[test]
fn sorts_with_split_merge_windows_identical() {
    // 8 runs of 2^15 records on 4 tapes: 3-way merges (2-way for the
    // balanced sort) whose windows split, on uniform keys and on 16
    // distinct keys.
    let uniform = random_u32(SPLIT_RECORDS, 21);
    let few = uniform.iter().map(|x| x % 16).collect::<Vec<_>>();
    for (keys, data) in [("uniform", uniform), ("16 keys", few)] {
        for (name, sort) in SORTERS {
            let cfg_seq = ExtSortConfig::new(1 << 15).with_tapes(4);
            let (d_seq, r_seq, io_seq) = metered(4096, &data, |d| {
                sort(d, "in", "out", "pp", &cfg_seq).unwrap()
            });
            for w in [2, 3] {
                let cfg_pipe = cfg_seq
                    .clone()
                    .with_pipeline(PipelineConfig::with_workers(w));
                let ((d_pipe, r_pipe, io_pipe), splits) = counting_splits(|| {
                    metered(4096, &data, |d| {
                        sort(d, "in", "out", "pp", &cfg_pipe).unwrap()
                    })
                });
                let what = format!("{name}, {keys}, workers {w}");
                assert!(splits > 0, "{what}: no merge window split");
                assert_eq!(io_pipe, io_seq, "{what}: I/O counters differ");
                assert_eq!(r_pipe.merge_phases, r_seq.merge_phases, "{what}");
                assert_eq!(r_pipe.comparisons, r_seq.comparisons, "{what}");
                assert_eq!(r_pipe.key_ops, r_seq.key_ops, "{what}");
                assert_eq!(r_pipe.io, r_seq.io, "{what}");
                assert_same_bytes::<u32>(&d_seq, &d_pipe, "out");
            }
        }
    }
}

#[test]
fn multiway_merge_with_split_windows_identical() {
    // Step 5's merge of 8 sorted files, 2^15 records each.
    let names: Vec<String> = (0..8).map(|i| format!("in{i}")).collect();
    let setup = |d: &Disk| {
        for (i, name) in names.iter().enumerate() {
            let mut run = random_u32(SPLIT_RECORDS / names.len(), 30 + i as u64);
            run.sort_unstable();
            d.write_file(name, &run).unwrap();
        }
    };
    let merge = |pipeline: &PipelineConfig| {
        let disk = Disk::in_memory(4096);
        setup(&disk);
        let before = disk.stats().snapshot();
        let report =
            merge_sorted_files_kernel::<u32>(&disk, &names, "out", pipeline, SortKernel::default())
                .unwrap();
        let io = disk.stats().snapshot().delta(&before);
        (disk, report, io)
    };
    let (d_seq, r_seq, io_seq) = merge(&PipelineConfig::off());
    for w in [2, 3] {
        let ((d_pipe, r_pipe, io_pipe), splits) =
            counting_splits(|| merge(&PipelineConfig::with_workers(w)));
        assert!(splits > 0, "workers {w}: no merge window split");
        assert_eq!(io_pipe, io_seq, "workers {w}: I/O counters differ");
        assert_eq!(r_pipe.records, r_seq.records);
        assert_eq!(r_pipe.comparisons, r_seq.comparisons);
        assert_eq!(r_pipe.key_ops, r_seq.key_ops);
        assert_eq!(r_pipe.io, r_seq.io);
        assert_same_bytes::<u32>(&d_seq, &d_pipe, "out");
    }
}
