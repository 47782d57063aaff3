//! Differential tests for the record layout: the block layer moves records
//! whose in-memory layout is the file encoding (`u32`) through borrowed
//! views of its I/O buffers, and every other record type through a
//! per-block staging copy. Sorting [`Opaque`] values, which have no
//! borrowable layout, must be *observationally identical* to sorting the
//! same `u32` values — byte-identical output files AND identical metered
//! [`pdm::IoStats`] — across every benchmark distribution, pipelined and
//! sequential formation, real files, and deliberately unaligned
//! memory/block geometries that force partial final blocks and mid-block
//! staging. The layout may only change *how fast* bytes move, never which
//! bytes move or how the PDM meters them.
//!
//! Like `kernel_differential`, the random sweep draws from a fixed-seed PCG
//! so failures replay deterministically.

use extsort::{
    balanced_kway_sort, fingerprint_file, is_sorted_file, polyphase_sort, ExtSortConfig,
    PipelineConfig, SortKernel, SortReport,
};
use pdm::{Disk, IoSnapshot, PdmResult, Record, ScratchDir};
use sim::rng::{Pcg64, Rng};
use workloads::{generate_whole, Benchmark};

/// A `u32` without a borrowable layout: `view_slice`/`view_bytes` keep
/// their `None` defaults, so every block goes through the staging copy.
/// Its key and its file encoding are those of `u32`, so the two sort the
/// same bytes into the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Opaque(u32);

impl Record for Opaque {
    const SIZE: usize = 4;
    const HAS_SORT_KEY: bool = true;
    const KEY_IS_TOTAL: bool = true;

    fn sort_key(&self) -> u64 {
        u64::from(self.0)
    }

    fn write_to(&self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.0.to_le_bytes());
    }

    fn read_from(buf: &[u8]) -> Self {
        Opaque(u32::from_le_bytes(buf.try_into().expect("4-byte record")))
    }
}

/// An external sorter: `(disk, input, output, job, cfg)`.
type Sorter = fn(&Disk, &str, &str, &str, &ExtSortConfig) -> PdmResult<SortReport>;

/// What one sort left behind: the output read back as `u32`, the report
/// and the I/O the sort metered.
struct Sorted {
    out: Vec<u32>,
    report: SortReport,
    io: IoSnapshot,
}

/// Writes `data` as `in` on `disk`, sorts it into `out` with `sort` and
/// checks the output sorted and a permutation of the input as `R`.
fn sort_on<R: Record>(disk: &Disk, data: &[u32], sort: Sorter, cfg: &ExtSortConfig) -> Sorted {
    disk.write_file("in", data).unwrap();
    let before = disk.stats().snapshot();
    let report = sort(disk, "in", "out", "j", cfg).unwrap();
    let io = disk.stats().snapshot().delta(&before);
    // The verification helpers scan block views and fall back per record
    // when a view is empty; they must answer the same for either layout.
    assert!(is_sorted_file::<R>(disk, "out").unwrap());
    assert_eq!(
        fingerprint_file::<R>(disk, "out").unwrap(),
        fingerprint_file::<R>(disk, "in").unwrap(),
        "output is not a permutation of the input"
    );
    let out = disk.read_file::<u32>("out").unwrap();
    Sorted { out, report, io }
}

/// Sorts `data` as `u32` and as [`Opaque`], each on a fresh disk from
/// `disk`, and asserts the two runs identical.
fn assert_layouts_agree(
    disk: impl Fn() -> (Disk, Option<ScratchDir>),
    data: &[u32],
    sorters: (Sorter, Sorter),
    cfg: &ExtSortConfig,
    ctx: &str,
) {
    let (d, _pod_dir) = disk();
    let pod = sort_on::<u32>(&d, data, sorters.0, cfg);
    let (d, _opaque_dir) = disk();
    let opaque = sort_on::<Opaque>(&d, data, sorters.1, cfg);
    assert_eq!(opaque.io, pod.io, "{ctx}: I/O counters differ");
    assert_eq!(
        opaque.report.io, pod.report.io,
        "{ctx}: reported I/O differs"
    );
    assert_eq!(opaque.report.records, pod.report.records, "{ctx}");
    assert_eq!(opaque.report.comparisons, pod.report.comparisons, "{ctx}");
    assert_eq!(opaque.report.key_ops, pod.report.key_ops, "{ctx}");
    assert!(opaque.out == pod.out, "{ctx}: output bytes differ");
}

const POLYPHASE: (Sorter, Sorter) = (polyphase_sort::<u32>, polyphase_sort::<Opaque>);
const BALANCED: (Sorter, Sorter) = (balanced_kway_sort::<u32>, balanced_kway_sort::<Opaque>);

fn in_memory(block_bytes: usize) -> impl Fn() -> (Disk, Option<ScratchDir>) {
    move || (Disk::in_memory(block_bytes), None)
}

#[test]
fn polyphase_identical_across_layouts_all_distributions() {
    for bench in Benchmark::ALL {
        let data = generate_whole(bench, 0x10CC, &[2000]);
        for pipeline in [PipelineConfig::off(), PipelineConfig::with_workers(3)] {
            let cfg = ExtSortConfig::new(128)
                .with_tapes(4)
                .with_pipeline(pipeline);
            let ctx = format!("{bench}, {pipeline:?}");
            assert_layouts_agree(in_memory(64), &data, POLYPHASE, &cfg, &ctx);
        }
    }
}

#[test]
fn unaligned_boundaries_identical_across_layouts() {
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
        let ctx = format!("block={block}, n={n}, mem={mem}");
        assert_layouts_agree(in_memory(block), &data, POLYPHASE, &cfg, &ctx);
        assert_layouts_agree(in_memory(block), &data, BALANCED, &cfg, &ctx);
    }
}

#[test]
fn file_backed_disks_identical_across_layouts() {
    // Same contract on real files, pipelined, for every kernel.
    let data = generate_whole(Benchmark::ZipfDuplicates, 0xF11E, &[1800]);
    let on_files = || {
        let scratch = ScratchDir::new("layout-diff").unwrap();
        (Disk::on_files(scratch.path(), 64), Some(scratch))
    };
    for kernel in [SortKernel::Radix, SortKernel::Comparison] {
        let cfg = ExtSortConfig::new(160)
            .with_tapes(4)
            .with_kernel(kernel)
            .with_pipeline(PipelineConfig::with_workers(2));
        let ctx = format!("{kernel:?} on files");
        assert_layouts_agree(on_files, &data, BALANCED, &cfg, &ctx);
        assert_layouts_agree(on_files, &data, POLYPHASE, &cfg, &ctx);
    }
}

#[test]
fn seeded_random_geometries_identical_across_layouts() {
    // Proptest-style sweep: random distribution, size, tapes, block size,
    // memory budget, workers, and kernel.
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
        let ctx = format!(
            "case {case}: {bench}, {}, n={n}, mem={mem}, tapes={tapes}, block={block}, \
             workers={workers}",
            kernel.name()
        );
        assert_layouts_agree(in_memory(block), &data, POLYPHASE, &cfg, &ctx);
    }
}
