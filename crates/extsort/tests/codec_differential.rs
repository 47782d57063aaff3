//! Differential tests for the block codec: the zero-copy codec must be
//! *observationally identical* to the copying reference codec —
//! byte-identical output files AND identical metered [`pdm::IoStats`] —
//! across every benchmark distribution, both record shapes (plain `u32` and
//! the non-total-key `KeyPayload`), pipelined and sequential formation,
//! real files, and deliberately unaligned memory/block geometries that force
//! partial final blocks and mid-block staging. The codec may only change
//! *how fast* bytes move, never which bytes move or how the PDM meters them.
//!
//! Like `kernel_differential`, the "proptest" is a fixed-seed PCG sweep so
//! failures replay deterministically (the `proptest` crate is not vendored).

use extsort::{
    balanced_kway_sort, fingerprint_file, is_sorted_file, polyphase_sort, ExtSortConfig,
    PipelineConfig, SortKernel,
};
use pdm::record::KeyPayload;
use pdm::{Codec, Disk, IoSnapshot, Record, ScratchDir};
use sim::rng::{Pcg64, Rng};
use workloads::{generate_whole, Benchmark};

/// Runs `f` under the copying reference codec and then under zero-copy,
/// each on a fresh in-memory disk pre-loaded with `data` under `in`.
/// Returns (disk, result, I/O delta) per codec, reference first.
fn both_codecs<R: Record, T>(
    block_bytes: usize,
    data: &[R],
    f: impl Fn(&Disk) -> T,
) -> [(Disk, T, IoSnapshot); 2] {
    [Codec::Copying, Codec::ZeroCopy].map(|codec| {
        let disk = Disk::in_memory(block_bytes).with_codec(codec);
        disk.write_file("in", data).unwrap();
        let before = disk.stats().snapshot();
        let out = f(&disk);
        let delta = disk.stats().snapshot().delta(&before);
        (disk, out, delta)
    })
}

#[test]
fn polyphase_identical_across_codecs_all_distributions() {
    for bench in Benchmark::ALL {
        let data = generate_whole(bench, 0x10CC, &[2000]);
        let cfg = ExtSortConfig::new(128).with_tapes(4);
        let [(d_ref, r_ref, io_ref), (d, r, io)] = both_codecs(64, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg).unwrap()
        });
        assert_eq!(io, io_ref, "{bench}: I/O counters differ");
        assert_eq!(r.io, r_ref.io, "{bench}: reported I/O differs");
        assert_eq!(r.comparisons, r_ref.comparisons, "{bench}");
        assert_eq!(r.key_ops, r_ref.key_ops, "{bench}");
        assert_eq!(
            d.read_file::<u32>("out").unwrap(),
            d_ref.read_file::<u32>("out").unwrap(),
            "{bench}: output bytes differ"
        );
    }
}

#[test]
fn keyed_payloads_identical_across_codecs_with_pipeline() {
    // 16-byte records with duplicate-heavy non-total keys, pipelined
    // formation: the zero-copy view path must not perturb record order or
    // metering.
    let mut rng = Pcg64::new(0x0DEC);
    let data: Vec<KeyPayload> = (0..1500)
        .map(|_| KeyPayload::new(rng.next_u64() % 24, rng.next_u64()))
        .collect();
    for workers in [1usize, 3] {
        let mut cfg = ExtSortConfig::new(200).with_tapes(5);
        if workers > 1 {
            cfg = cfg.with_pipeline(PipelineConfig::with_workers(workers));
        }
        let [(d_ref, r_ref, io_ref), (d, r, io)] = both_codecs(256, &data, |d| {
            polyphase_sort::<KeyPayload>(d, "in", "out", "pp", &cfg).unwrap()
        });
        assert_eq!(io, io_ref, "workers {workers}: I/O differs");
        assert_eq!(r.records, r_ref.records, "workers {workers}");
        assert_eq!(
            d.read_file::<KeyPayload>("out").unwrap(),
            d_ref.read_file::<KeyPayload>("out").unwrap(),
            "workers {workers}: output bytes differ"
        );
    }
}

#[test]
fn unaligned_boundaries_identical_across_codecs() {
    // Geometries chosen so the final block of every file is partial and
    // memory loads straddle block boundaries: n is coprime to the
    // records-per-block, and the memory budget is not a multiple of it.
    for (block, n, mem) in [
        (64usize, 997u64, 101usize),
        (96, 1531, 149),
        (256, 2039, 333),
    ] {
        let data = generate_whole(Benchmark::Uniform, 0xA11A, &[n]);
        let cfg = ExtSortConfig::new(mem).with_tapes(3);
        let [(d_ref, _, io_ref), (d, _, io)] = both_codecs(block, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg).unwrap()
        });
        assert_eq!(io, io_ref, "block={block}, n={n}: I/O differs");
        assert_eq!(
            d.read_file::<u32>("out").unwrap(),
            d_ref.read_file::<u32>("out").unwrap(),
            "block={block}, n={n}: output bytes differ"
        );
        // Verification helpers exercise the mid-block view/seek paths; their
        // answers must agree across codecs too.
        assert!(is_sorted_file::<u32>(&d_ref, "out").unwrap());
        assert!(is_sorted_file::<u32>(&d, "out").unwrap());
        assert_eq!(
            fingerprint_file::<u32>(&d, "out").unwrap(),
            fingerprint_file::<u32>(&d_ref, "out").unwrap(),
            "block={block}, n={n}: fingerprint differs"
        );
    }
}

#[test]
fn file_backed_disks_identical_across_codecs() {
    // Same contract on real files, with pipelined prefetch/write-behind,
    // for every kernel; each output is also checked sorted and a
    // permutation of its input.
    let data = generate_whole(Benchmark::ZipfDuplicates, 0xF11E, &[1800]);
    for kernel in [SortKernel::Radix, SortKernel::Comparison] {
        let cfg = ExtSortConfig::new(160)
            .with_tapes(4)
            .with_kernel(kernel)
            .with_pipeline(PipelineConfig::with_workers(2));
        let [(out_ref, r_ref, io_ref), (out, r, io)] =
            [Codec::Copying, Codec::ZeroCopy].map(|codec| {
                let scratch = ScratchDir::new("codec-diff").unwrap();
                let disk = Disk::on_files(scratch.path(), 64).with_codec(codec);
                disk.write_file("in", &data).unwrap();
                let before = disk.stats().snapshot();
                let r = balanced_kway_sort::<u32>(&disk, "in", "out", "j", &cfg).unwrap();
                let io = disk.stats().snapshot().delta(&before);
                assert!(is_sorted_file::<u32>(&disk, "out").unwrap(), "{kernel:?}");
                assert_eq!(
                    fingerprint_file::<u32>(&disk, "out").unwrap(),
                    fingerprint_file::<u32>(&disk, "in").unwrap(),
                    "{kernel:?}, {codec:?}: output is not a permutation of the input"
                );
                (disk.read_file::<u32>("out").unwrap(), r, io)
            });
        assert_eq!(io, io_ref, "{kernel:?}: I/O differs on files");
        assert_eq!(r.records, r_ref.records);
        assert_eq!(out, out_ref, "{kernel:?}: output bytes differ on files");
    }
}

#[test]
fn seeded_random_geometries_identical_across_codecs() {
    // Proptest-style sweep: random distribution, size, tapes, block size,
    // memory budget, workers, and kernel; zero-copy must match the
    // reference codec exactly.
    let mut rng = Pcg64::new(0xC0DE);
    for case in 0..16 {
        let bench = Benchmark::from_id((rng.next_u64() % 9) as usize);
        let n = 200 + (rng.next_u64() % 2000) as usize;
        let tapes = 3 + (rng.next_u64() % 4) as usize;
        let block = 64usize << (rng.next_u64() % 3);
        let rpb = block / 4;
        let mem = (tapes * rpb).max(32 + (rng.next_u64() % 200) as usize);
        let workers = 1 + (rng.next_u64() % 3) as usize;
        let kernel = [SortKernel::Radix, SortKernel::Comparison][(rng.next_u64() % 2) as usize];
        let data = generate_whole(bench, rng.next_u64(), &[n as u64]);
        let cfg = ExtSortConfig::new(mem)
            .with_tapes(tapes)
            .with_kernel(kernel)
            .with_pipeline(PipelineConfig::with_workers(workers));
        let [(d_ref, _, io_ref), (d, _, io)] = both_codecs(block, &data, |d| {
            polyphase_sort::<u32>(d, "in", "out", "pp", &cfg).unwrap()
        });
        let ctx = format!(
            "case {case}: {bench}, {}, n={n}, mem={mem}, tapes={tapes}, block={block}, \
             workers={workers}",
            kernel.name()
        );
        assert_eq!(io, io_ref, "{ctx}: I/O differs");
        assert_eq!(
            d.read_file::<u32>("out").unwrap(),
            d_ref.read_file::<u32>("out").unwrap(),
            "{ctx}: output bytes differ"
        );
    }
}
