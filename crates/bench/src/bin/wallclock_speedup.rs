//! Wall-clock engine bench: kernel × codec grid at GB scale.
//!
//! Unlike the table reproductions (which price counted work through the
//! paper's Alpha/SCSI cost model), this bench measures **host wall time**
//! on real files: it generates a multi-hundred-MB input once per cell,
//! sorts it with the full pipelined polyphase engine, and reports
//! sustained records/sec and MB/s for every combination of
//!
//! * in-core kernel — LSD radix vs the ips4o-style in-place partitioner,
//! * block codec — copying vs zero-copy borrowed views,
//!
//! plus an external baseline ("read the whole file, `sort_unstable`,
//! write it back") for scale. The reference cell is radix + copying codec;
//! the "upgraded" cell is ips4o + zero-copy. Their wall-time ratio is
//! recorded as `speedup_upgraded`, a measurement rather than a claim: the
//! bench asserts no minimum for it.
//!
//! Every cell must stay observationally correct: the output fingerprint
//! must equal the input's and the file must be sorted; with a total-order
//! record type that makes all cell outputs byte-identical.
//!
//! Emits `BENCH_wallclock.json` in the working directory:
//!
//! ```sh
//! cargo run --release -p hetsort-bench --bin wallclock_speedup -- --selftest
//! ```
//!
//! `--quick` shrinks n to 2²⁰ for CI.

use std::time::Instant;

use extsort::{
    fingerprint_file, is_sorted_file, polyphase_sort, ExtSortConfig, Fingerprint, PipelineConfig,
    SortKernel,
};
use hetsort_bench::{print_table, Args};
use pdm::{Codec, Disk, DiskModel, ScratchDir};
use workloads::{generate_to_disk, Benchmark, Layout};

const BLOCK_BYTES: usize = 256 * 1024;
const TAPES: usize = 8;
const SORT_WORKERS: usize = 4;
const PREFETCH_DEPTH: usize = 8;

struct Cell {
    kernel: SortKernel,
    codec: Codec,
    wall_secs: f64,
    fingerprint: Fingerprint,
}

fn fresh_disk(n: u64, seed: u64, codec: Codec) -> (ScratchDir, Disk) {
    let scratch = ScratchDir::new("wallclock-bench").expect("scratch dir");
    let disk = Disk::on_files(scratch.path(), BLOCK_BYTES)
        // A modern-NVMe service model: irrelevant to wall time, but the
        // merge planner consults it before accepting advisory merge
        // workers (seek-dominated models veto them).
        .with_model(DiskModel::nvme_modern())
        .with_codec(codec);
    generate_to_disk(&disk, "input", Benchmark::Uniform, seed, Layout::single(n))
        .expect("generate");
    (scratch, disk)
}

fn run_cell(n: u64, mem_records: usize, seed: u64, kernel: SortKernel, codec: Codec) -> Cell {
    let (_scratch, disk) = fresh_disk(n, seed, codec);
    let cfg = ExtSortConfig::new(mem_records)
        .with_tapes(TAPES)
        .with_kernel(kernel)
        .with_pipeline(
            PipelineConfig::with_workers(SORT_WORKERS)
                .with_prefetch_blocks(PREFETCH_DEPTH)
                .with_advisory_merge_workers(SORT_WORKERS),
        );
    let t0 = Instant::now();
    let report = polyphase_sort::<u32>(&disk, "input", "output", "wc", &cfg).expect("sort");
    let wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(report.records, n, "{}: record count", kernel.name());
    assert!(
        is_sorted_file::<u32>(&disk, "output").expect("scan"),
        "{}/{}: output not sorted",
        kernel.name(),
        codec.name()
    );
    let fingerprint = fingerprint_file::<u32>(&disk, "output").expect("fingerprint");
    Cell {
        kernel,
        codec,
        wall_secs,
        fingerprint,
    }
}

/// External baseline: read everything, `sort_unstable`, write everything.
/// In-core (cheats the memory budget), single-threaded, no pipeline — the
/// "what a shell `sort` of a binary file could hope for" scale marker.
fn run_std_baseline(n: u64, seed: u64) -> (f64, Fingerprint) {
    let (_scratch, disk) = fresh_disk(n, seed, Codec::default());
    let t0 = Instant::now();
    let mut data = disk.read_file::<u32>("input").expect("read");
    data.sort_unstable();
    disk.write_file("output", &data).expect("write");
    let wall = t0.elapsed().as_secs_f64();
    drop(data);
    let fp = fingerprint_file::<u32>(&disk, "output").expect("fingerprint");
    (wall, fp)
}

fn main() {
    let args = Args::parse();
    let n: u64 = if args.paper {
        1 << 27
    } else if args.quick {
        1 << 20
    } else {
        1 << 26
    };
    // Out-of-core by 8× so polyphase genuinely merges, but enough for the
    // streaming minimum of two blocks per tape.
    let records_per_block = BLOCK_BYTES / 4;
    let mem_records = ((n / 8) as usize).max(2 * TAPES * records_per_block);
    let mb = n as f64 * 4.0 / 1e6;

    println!(
        "wallclock grid: n = {n} ({mb:.0} MB), M = {mem_records}, T = {TAPES}, \
         block = {BLOCK_BYTES}, workers = {SORT_WORKERS}, depth = {PREFETCH_DEPTH}"
    );

    let (std_wall, std_fp) = run_std_baseline(n, args.seed);

    let mut cells = Vec::new();
    for kernel in [SortKernel::Radix, SortKernel::Ips4o] {
        for codec in [Codec::Copying, Codec::ZeroCopy] {
            let cell = run_cell(n, mem_records, args.seed, kernel, codec);
            assert_eq!(
                cell.fingerprint,
                std_fp,
                "{}/{}: output differs from std baseline",
                kernel.name(),
                codec.name()
            );
            println!(
                "  {:>6} {:>8}  {:8.3}s  {:>12.0} rec/s",
                kernel.name(),
                codec.name(),
                cell.wall_secs,
                n as f64 / cell.wall_secs
            );
            cells.push(cell);
        }
    }

    let find = |k: SortKernel, c: Codec| {
        cells
            .iter()
            .find(|cell| cell.kernel == k && cell.codec == c)
            .expect("cell present")
    };
    let reference = find(SortKernel::Radix, Codec::Copying);
    let upgraded = find(SortKernel::Ips4o, Codec::ZeroCopy);
    let speedup = reference.wall_secs / upgraded.wall_secs;

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    {
        let rps = n as f64 / std_wall;
        rows.push(vec![
            "std_slice_sort".into(),
            "-".into(),
            format!("{std_wall:.3}"),
            format!("{rps:.0}"),
            format!("{:.1}", mb / std_wall),
            "-".into(),
        ]);
        json_rows.push(format!(
            "    {{\"kernel\": \"std_slice_sort\", \"codec\": null, \
             \"wall_secs\": {std_wall:.4}, \"records_per_sec\": {rps:.1}, \
             \"mb_per_sec\": {:.2}}}",
            mb / std_wall
        ));
    }
    for cell in &cells {
        let rps = n as f64 / cell.wall_secs;
        rows.push(vec![
            cell.kernel.name().into(),
            cell.codec.name().into(),
            format!("{:.3}", cell.wall_secs),
            format!("{rps:.0}"),
            format!("{:.1}", mb / cell.wall_secs),
            format!("{:.2}", reference.wall_secs / cell.wall_secs),
        ]);
        json_rows.push(format!(
            "    {{\"kernel\": \"{}\", \"codec\": \"{}\", \"wall_secs\": {:.4}, \
             \"records_per_sec\": {rps:.1}, \"mb_per_sec\": {:.2}}}",
            cell.kernel.name(),
            cell.codec.name(),
            cell.wall_secs,
            mb / cell.wall_secs
        ));
    }

    print_table(
        &format!("Wall-clock grid (n = {n}, {mb:.0} MB, real files)"),
        &["kernel", "codec", "wall s", "rec/s", "MB/s", "vs ref"],
        &rows,
    );
    println!("upgraded (ips4o/zerocopy) vs reference (radix/copy): {speedup:.2}x");

    let json = format!(
        "{{\n  \"bench\": \"wallclock_speedup\",\n  \"n\": {n},\n  \"record_bytes\": 4,\n  \
         \"mem_records\": {mem_records},\n  \"tapes\": {TAPES},\n  \
         \"block_bytes\": {BLOCK_BYTES},\n  \"sort_workers\": {SORT_WORKERS},\n  \
         \"prefetch_depth\": {PREFETCH_DEPTH},\n  \
         \"reference\": {{\"kernel\": \"radix\", \"codec\": \"copy\"}},\n  \
         \"upgraded\": {{\"kernel\": \"ips4o\", \"codec\": \"zerocopy\"}},\n  \
         \"speedup_upgraded\": {speedup:.4},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_wallclock.json", &json).expect("write BENCH_wallclock.json");
    println!("wrote BENCH_wallclock.json");

    if args.selftest {
        // Identity is asserted per cell above (fingerprint + sortedness).
        println!("selftest ok");
    }
}
