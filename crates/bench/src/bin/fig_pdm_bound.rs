//! Figure 1 / PDM-bound study: measured block I/Os vs the `Sort(N)` bound.
//!
//! The paper's Figure 1 and Theorem 1 present Vitter's PDM and the
//! `Sort(N) = Θ((n/D)·log_m n)` I/O bound that the polyphase-based
//! algorithm is designed to match. This binary sorts a ladder of problem
//! sizes (and a ladder of memory sizes) and prints measured block
//! transfers against the bound, confirming the implementation sits within
//! a small constant of optimal.

use hetsort_bench::{print_table, sequential_polyphase_trial, Args};
use pdm::PdmParams;
use workloads::Benchmark;

fn main() {
    let args = Args::parse();
    let block_records = (32 * 1024) / 4; // 32 KiB blocks of u32

    // PDM needs M < N: with 32 KiB blocks and a 16-tape merge the smallest
    // honest out-of-core size is 2^17 records, so clamp the quick ladder.
    let sizes: Vec<u64> = args
        .size_ladder()
        .into_iter()
        .map(|n| n.max(1 << 17))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    // Sweep N at fixed M.
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for &n in &sizes {
        let mem = ((n / 16) as usize).max(4 * block_records);
        let tapes = 8.min(mem / block_records);
        let (_, report) = sequential_polyphase_trial(
            n,
            mem,
            tapes,
            1.0,
            args.seed,
            0.0,
            args.files,
            Benchmark::Uniform,
        );
        let params = PdmParams::new(n, mem as u64, block_records as u64, 1, 1);
        let bound = params.sort_io_bound();
        let measured = report.io.total_blocks();
        let ratio = measured as f64 / bound as f64;
        ratios.push(ratio);
        rows.push(vec![
            n.to_string(),
            mem.to_string(),
            params.n_blocks().to_string(),
            params.m_blocks().to_string(),
            params.merge_levels().to_string(),
            bound.to_string(),
            measured.to_string(),
            format!("{ratio:.3}"),
        ]);
    }
    print_table(
        "PDM bound — measured polyphase block I/Os vs Sort(N) = 2·(n/D)·⌈log_m n⌉",
        &[
            "N",
            "M",
            "n=N/B",
            "m=M/B",
            "levels",
            "bound (blocks)",
            "measured",
            "measured/bound",
        ],
        &rows,
    );

    // Sweep M at fixed N: fewer memory blocks → more levels → more I/O.
    let n = *sizes.last().unwrap();
    let mut rows = Vec::new();
    for shift in [3u32, 4, 5, 6] {
        let mem = ((n >> shift) as usize).max(4 * block_records);
        let tapes = 8.min(mem / block_records).max(3);
        let (_, report) = sequential_polyphase_trial(
            n,
            mem,
            tapes,
            1.0,
            args.seed,
            0.0,
            args.files,
            Benchmark::Uniform,
        );
        let params = PdmParams::new(n, mem as u64, block_records as u64, 1, 1);
        rows.push(vec![
            format!("N/{}", 1u64 << shift),
            params.merge_levels().to_string(),
            params.sort_io_bound().to_string(),
            report.io.total_blocks().to_string(),
        ]);
    }
    print_table(
        &format!("Memory sweep at N = {n}"),
        &["M", "levels", "bound", "measured"],
        &rows,
    );

    // Sweep D at fixed N and M: the striped two-phase sort realizes the
    // 1/D factor of Sort(N) = Θ((n/D)·log_m n).
    // One merge pass buffers one block per run per disk, so use 4 KiB
    // blocks and a quarter-size memory (4 runs) to fit D = 8.
    let n_d = (n / 4).max(1 << 17);
    let mem = (n_d / 4) as usize;
    let d_block_records = 4096 / 4;
    let mut rows = Vec::new();
    let mut parallel_ios = Vec::new();
    for d in [1usize, 2, 4, 8] {
        let arr = pdm::DiskArray::in_memory(d, 4096);
        let mut w = arr.striped_writer::<u32>("input").expect("writer");
        let input = workloads::generate_block(
            workloads::Benchmark::Uniform,
            args.seed,
            workloads::Layout::single(n_d),
        );
        for x in input {
            w.push(x).expect("push");
        }
        w.finish().expect("finish");
        let before = arr.parallel_ios();
        extsort::striped_two_phase_sort::<u32>(&arr, "input", "output", "j", mem)
            .expect("striped sort");
        let pio = arr.parallel_ios() - before;
        let params = PdmParams::new(n_d, mem as u64, d_block_records as u64, d as u64, 1);
        parallel_ios.push(pio);
        rows.push(vec![
            d.to_string(),
            params.sort_io_bound().to_string(),
            arr.total_io().total_blocks().to_string(),
            pio.to_string(),
            format!("{:.2}", parallel_ios[0] as f64 / pio as f64),
        ]);
    }
    print_table(
        &format!("Disk sweep at N = {n_d} (striped two-phase sort; bound has the 1/D factor)"),
        &[
            "D",
            "bound (par. I/Os)",
            "total blocks",
            "parallel I/Os (busiest disk)",
            "speedup vs D=1",
        ],
        &rows,
    );

    if args.selftest {
        for (i, r) in ratios.iter().enumerate() {
            assert!(
                (0.3..4.0).contains(r),
                "size index {i}: measured/bound ratio {r:.3} strays from Θ(1)"
            );
        }
        let d4 = parallel_ios[0] as f64 / parallel_ios[2] as f64;
        assert!(
            (3.0..5.0).contains(&d4),
            "D=4 should cut parallel I/Os ~4x, got {d4:.2}"
        );
        println!(
            "selftest ok: polyphase I/O within a small constant of Sort(N); \
             D-disk striping delivers the 1/D factor"
        );
    }
}
