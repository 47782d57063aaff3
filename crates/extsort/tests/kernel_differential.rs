//! Differential tests: the radix kernel must be *observationally
//! identical* to the comparison kernel — byte-identical output files AND
//! identical metered block-I/O — across every benchmark distribution (including the
//! duplicate-heavy Zero and Zipf inputs), every sorter, and every pipeline
//! worker count. A kernel is allowed to change how CPU work is *counted*
//! (`key_ops` vs `comparisons`), never what is written.
//!
//! Randomized configurations are drawn from a fixed-seed PCG, so failures
//! replay deterministically.

use extsort::{
    balanced_kway_sort, distribution_sort, merge_sorted_files_kernel, polyphase_sort,
    ExtSortConfig, PipelineConfig, SortKernel,
};
use pdm::record::KeyPayload;
use pdm::{Disk, IoSnapshot, Record};
use sim::rng::{Pcg64, Rng};
use workloads::{generate_whole, Benchmark};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

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

fn assert_same_bytes<R: Record>(a: &Disk, b: &Disk, name: &str, what: &str) {
    assert_eq!(
        a.read_file::<R>(name).unwrap(),
        b.read_file::<R>(name).unwrap(),
        "file {name} differs between kernels ({what})"
    );
}

#[test]
fn polyphase_kernels_identical_across_all_distributions() {
    for bench in Benchmark::ALL {
        let data = generate_whole(bench, 0xC0FFEE, &[2000]);
        let base = ExtSortConfig::new(128).with_tapes(4);
        let cfg_cmp = base.clone().with_kernel(SortKernel::Comparison);
        let (d_cmp, r_cmp, io_cmp) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_cmp).unwrap()
        });
        let kernel = SortKernel::Radix;
        let cfg_fast = base.clone().with_kernel(kernel);
        let (d_fast, r_fast, io_fast) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_fast).unwrap()
        });
        let k = kernel.name();
        assert_eq!(io_fast, io_cmp, "{bench}/{k}: I/O counters differ");
        assert_eq!(r_fast.io, r_cmp.io, "{bench}/{k}: reported I/O differs");
        assert_eq!(r_fast.records, r_cmp.records);
        assert_eq!(r_fast.initial_runs, r_cmp.initial_runs);
        assert_eq!(r_fast.merge_phases, r_cmp.merge_phases);
        assert_same_bytes::<u32>(&d_cmp, &d_fast, "out", &format!("{bench}/{k}"));
        // The fast path must actually bill key passes on non-trivial input.
        if !data.is_empty() {
            assert!(r_fast.key_ops > 0, "{bench}/{k}: billed no key ops");
            assert_eq!(r_cmp.key_ops, 0, "{bench}: comparison billed key ops");
        }
    }
}

#[test]
fn polyphase_kernels_identical_at_msd_sizes() {
    // Keys widened to `u64` so the chunks pass the radix kernel's 2 MiB
    // MSD threshold at a record count debug builds sort quickly. The first
    // chunk, 2¹⁸ + 2¹³ records (just over 2 MiB), takes the MSD-first
    // path; the rest (1 MiB) stays on plain LSD. Zipf chunks are counted
    // instead.
    let mem = (1 << 18) + (1 << 13);
    for bench in Benchmark::ALL {
        let data: Vec<u64> = generate_whole(bench, 0x5EED, &[3 << 17])
            .into_iter()
            .map(u64::from)
            .collect();
        let base = ExtSortConfig::new(mem).with_tapes(4);
        let run = |kernel: SortKernel| {
            let cfg = base.clone().with_kernel(kernel);
            metered(64 << 10, &data, |d| {
                polyphase_sort::<u64>(d, "in", "out", "pp", &cfg).unwrap()
            })
        };
        let (d_cmp, r_cmp, io_cmp) = run(SortKernel::Comparison);
        let kernel = SortKernel::Radix;
        let k = kernel.name();
        let (d_fast, r_fast, io_fast) = run(kernel);
        assert_eq!(io_fast, io_cmp, "{bench}/{k}: I/O counters differ");
        assert_eq!(r_fast.io, r_cmp.io, "{bench}/{k}: reported I/O differs");
        assert_eq!(r_fast.initial_runs, r_cmp.initial_runs, "{bench}/{k}");
        assert_same_bytes::<u64>(&d_cmp, &d_fast, "out", &format!("{bench}/{k}"));
    }
}

#[test]
fn fast_kernels_pipelined_match_sequential_per_distribution() {
    for bench in Benchmark::ALL {
        let data = generate_whole(bench, 0xBEEF, &[1500]);
        let kernel = SortKernel::Radix;
        let cfg_seq = ExtSortConfig::new(96).with_tapes(4).with_kernel(kernel);
        let (d_seq, r_seq, io_seq) = metered(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_seq).unwrap()
        });
        let k = kernel.name();
        for &w in &WORKER_COUNTS {
            let cfg_pipe = cfg_seq
                .clone()
                .with_pipeline(PipelineConfig::with_workers(w));
            let (d_pipe, r_pipe, io_pipe) = metered(64, &data, |d| {
                polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_pipe).unwrap()
            });
            assert_eq!(io_pipe, io_seq, "{bench}/{k}, workers {w}: I/O differs");
            assert_eq!(
                r_pipe.comparisons, r_seq.comparisons,
                "{bench}/{k}, workers {w}"
            );
            assert_eq!(r_pipe.key_ops, r_seq.key_ops, "{bench}/{k}, workers {w}");
            assert_same_bytes::<u32>(&d_seq, &d_pipe, "out", &format!("{bench}/{k}, workers {w}"));
        }
    }
}

#[test]
fn balanced_kway_and_distribution_sort_kernels_identical() {
    for bench in [
        Benchmark::Uniform,
        Benchmark::Zero,
        Benchmark::ZipfDuplicates,
    ] {
        let data = generate_whole(bench, 0xFEED, &[1800]);
        for kernel_pair in [("kway", true), ("dist", false)] {
            let (label, is_kway) = kernel_pair;
            let run = |kernel: SortKernel| {
                let cfg = ExtSortConfig::new(128).with_tapes(4).with_kernel(kernel);
                metered(64, &data, |d| {
                    if is_kway {
                        balanced_kway_sort::<u32>(d, "in", "out", "j", &cfg).unwrap()
                    } else {
                        distribution_sort::<u32>(d, "in", "out", "j", &cfg).unwrap()
                    }
                })
            };
            let (d_cmp, r_cmp, io_cmp) = run(SortKernel::Comparison);
            let kernel = SortKernel::Radix;
            let k = kernel.name();
            let (d_fast, r_fast, io_fast) = run(kernel);
            assert_eq!(io_fast, io_cmp, "{bench}/{label}/{k}: I/O differs");
            assert_eq!(r_fast.records, r_cmp.records, "{bench}/{label}/{k}");
            assert_same_bytes::<u32>(&d_cmp, &d_fast, "out", &format!("{bench}/{label}/{k}"));
        }
    }
}

#[test]
fn final_merge_kernels_identical() {
    let inputs: Vec<Vec<u32>> = (0..4u32)
        .map(|k| (0..300).map(|i| i * 4 + k).collect())
        .collect();
    let names: Vec<String> = (0..4).map(|i| format!("in{i}")).collect();
    let run = |kernel: SortKernel, pipeline: &PipelineConfig| {
        let disk = Disk::in_memory(128);
        for (i, v) in inputs.iter().enumerate() {
            disk.write_file(&format!("in{i}"), v).unwrap();
        }
        let before = disk.stats().snapshot();
        let r = merge_sorted_files_kernel::<u32>(&disk, &names, "out", pipeline, kernel).unwrap();
        let io = disk.stats().snapshot().delta(&before);
        (disk, r, io)
    };
    let off = PipelineConfig::off();
    let (d_cmp, r_cmp, io_cmp) = run(SortKernel::Comparison, &off);
    let kernel = SortKernel::Radix;
    let k = kernel.name();
    for &w in &WORKER_COUNTS {
        let pipe = if w == 1 {
            PipelineConfig::off()
        } else {
            PipelineConfig::with_workers(w)
        };
        let (d_fast, r_fast, io_fast) = run(kernel, &pipe);
        assert_eq!(io_fast, io_cmp, "{k}, workers {w}");
        assert_eq!(r_fast.records, r_cmp.records);
        // Same selects, billed to a different counter.
        assert_eq!(r_fast.key_ops, r_cmp.comparisons, "{k}, workers {w}");
        assert_eq!(r_fast.comparisons, 0);
        assert_same_bytes::<u32>(&d_cmp, &d_fast, "out", &format!("{k}, workers {w}"));
    }
}

#[test]
fn keyed_payload_records_identical_across_kernels() {
    // KeyPayload's sort key is not a total order: the radix cleanup pass
    // must reproduce the full-Ord order exactly, even with heavy key duplication.
    let mut rng = Pcg64::new(0x517);
    let data: Vec<KeyPayload> = (0..1500)
        .map(|_| KeyPayload::new(rng.next_u64() % 32, rng.next_u64()))
        .collect();
    let base = ExtSortConfig::new(200).with_tapes(5);
    let (d_cmp, r_cmp, io_cmp) = metered(256, &data, |d| {
        polyphase_sort::<KeyPayload>(
            d,
            "in",
            "out",
            "pp",
            &base.clone().with_kernel(SortKernel::Comparison),
        )
        .unwrap()
    });
    let kernel = SortKernel::Radix;
    let k = kernel.name();
    for &w in &WORKER_COUNTS {
        let mut cfg = base.clone().with_kernel(kernel);
        if w > 1 {
            cfg = cfg.with_pipeline(PipelineConfig::with_workers(w));
        }
        let (d_fast, r_fast, io_fast) = metered(256, &data, |d| {
            polyphase_sort::<KeyPayload>(d, "in", "out", "pp", &cfg).unwrap()
        });
        assert_eq!(io_fast, io_cmp, "{k}, workers {w}: I/O differs");
        assert_eq!(r_fast.records, r_cmp.records);
        assert_same_bytes::<KeyPayload>(&d_cmp, &d_fast, "out", &format!("{k}, workers {w}"));
    }
}

#[test]
fn seeded_random_configs_identical() {
    // Proptest-style sweep: random sizes, memory budgets, tape counts and
    // distributions from a fixed seed; every fast kernel must match
    // comparison on all.
    let mut rng = Pcg64::new(0xD1FF);
    for case in 0..24 {
        let bench = Benchmark::from_id((rng.next_u64() % 9) as usize);
        let n = 200 + (rng.next_u64() % 2300) as usize;
        let tapes = 3 + (rng.next_u64() % 5) as usize;
        let block = 64usize << (rng.next_u64() % 3);
        let rpb = block / 4;
        let mem = (tapes * rpb).max(32 + (rng.next_u64() % 200) as usize);
        let workers = 1 + (rng.next_u64() % 4) as usize;
        let data = generate_whole(bench, rng.next_u64(), &[n as u64]);

        let base = ExtSortConfig::new(mem).with_tapes(tapes);
        let (d_cmp, _, io_cmp) = metered(block, &data, |d| {
            polyphase_sort::<u32>(
                d,
                "in",
                "out",
                "pp",
                &base.clone().with_kernel(SortKernel::Comparison),
            )
            .unwrap()
        });
        let kernel = SortKernel::Radix;
        let cfg_fast = base
            .clone()
            .with_kernel(kernel)
            .with_pipeline(PipelineConfig::with_workers(workers));
        let (d_fast, _, io_fast) = metered(block, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg_fast).unwrap()
        });
        let ctx = format!(
            "case {case}: {bench}, {}, n={n}, mem={mem}, tapes={tapes}, block={block}, \
             workers={workers}",
            kernel.name()
        );
        assert_eq!(io_fast, io_cmp, "{ctx}: I/O differs");
        assert_same_bytes::<u32>(&d_cmp, &d_fast, "out", &ctx);
    }
}
