//! Simulator-scalability sweep: p = 4 … 1024 nodes in one process.
//!
//! The thread-per-node runtime spends one OS thread per simulated node,
//! so every blocking receive costs a real futex sleep/wake (~µs) and a
//! p = 256 trial wants 256 threads. The event runtime multiplexes every
//! node onto one thread and schedules by virtual time, so a park/resume
//! is two `BTreeSet` operations (~100 ns) and messages are usually in
//! the mailbox before the receiver even asks. This bench puts numbers on
//! three halves of that story:
//!
//! * **Throughput** — a synchronization-dominated stress (rounds of
//!   blocking nearest-neighbor ring exchange plus a barrier, with a
//!   fixed compute charge per round) runs under both schedulers. Each
//!   round parks every node at least once, so the wall-clock ratio is a
//!   direct measurement of the scheduling machinery. `sim_per_wall` —
//!   simulated seconds advanced per wall second — is the figure of
//!   merit, and the headline `events_vs_threads_p64` compares the two
//!   runtimes head-to-head at p = 64.
//! * **Phase shares** — the in-core PSRS sort (communication-dominated
//!   sizing, heterogeneous 1-1-4-4 speed pattern) swept over the same
//!   ladder, reporting the simulated makespan share of the splitter sort
//!   (`pivots` phase, the paper's O(p²) sequential bottleneck) and of
//!   the exchange (`redistribute` phase) as p grows.
//! * **Splitter strategies** — every PSRS width runs under both the flat
//!   root-gather (the paper's step 2) and the two-level √p-grouped
//!   selection; grouped rows also report the per-level split timings
//!   (sample gather, leader sort, boundary exchange — the max across
//!   nodes) and every PSRS row its sublist expansion S(max), so a
//!   speedup can never hide an unbalanced cut. Flat is swept only to p = 256: past that the root's
//!   `(Σperf)²` sample sort dominates everything, which is exactly the
//!   curve this sweep exists to show. The `grouped_speedup_p256`
//!   headline is the flat/grouped makespan ratio at p = 256 (events).
//!
//! The thread runtime is only swept to p = 64 (beyond that, spawning
//! hundreds of OS threads per trial measures the host, not the
//! simulator); the event runtime covers the full ladder including
//! p = 1024 (grouped splitter only — the one-process scale target).
//! Both workloads use blocking exchanges only, so the two runtimes must
//! simulate the exact same virtual run — the bench asserts bit-identical
//! makespans at every shared width, for both splitter strategies.
//!
//! Makespans, phase shares and `grouped_speedup_p256` are model output
//! (virtual seconds from the paper's cost model); only the wall columns
//! and `events_vs_threads_p64` are measured, and they measure the
//! simulator, not the sort. Emits `BENCH_scale.json`.
//!
//! ```sh
//! cargo run --release -p hetsort-bench --bin scale -- --selftest
//! ```

use std::time::Instant;

use cluster::charge::Work;
use cluster::{run_cluster, ClusterSpec, RuntimeKind, Tag};
use extsort::SortKernel;
use hetsort::incore::PivotStrategy;
use hetsort::{psrs_incore_split, LoadBalance, PerfVector, SplitTiming, SplitterStrategy};
use hetsort_bench::{print_table, Args};
use sim::rng::Rng;

/// Cluster widths to sweep. The event runtime covers all of them.
const P_LADDER: [usize; 5] = [4, 16, 64, 256, 1024];
/// Widest cluster the thread runtime is asked to simulate.
const THREADS_MAX_P: usize = 64;
/// Widest cluster the flat splitter is swept to: the p = 1024 row is the
/// grouped one-process scale target, not a flat O(p²) endurance test.
const FLAT_MAX_P: usize = 256;
/// The p at which the two runtimes' throughput is compared head-to-head.
const HEADLINE_P: usize = 64;
/// The p at which flat and grouped splitter selection are compared.
const GROUPED_P: usize = 256;
/// Selftest gate: simulated seconds per wall second, events over threads,
/// at the headline width on the ring stress.
const HEADLINE_GATE: f64 = 10.0;
/// Selftest gates on the splitter-sort share of the makespan at
/// p = `GROUPED_P`: flat must exhibit the O(p²) wall, grouped must not.
const FLAT_SHARE_FLOOR: f64 = 0.60;
const GROUPED_SHARE_CEIL: f64 = 0.25;
/// Selftest floor on `grouped_speedup_p256`, the flat/grouped simulated
/// makespan ratio at p = `GROUPED_P` (model output, not a wall-clock
/// speedup): 0.85 × 4.3648, the ratio recorded at `--quick` size.
const GROUPED_SPEEDUP_FLOOR: f64 = 3.71;
/// Selftest ceiling on the sublist expansion S(max) of both splitters at
/// p = `GROUPED_P`: the paper's 2× load-balance bound.
const EXPANSION_CEIL: f64 = 2.0;

/// The paper's heterogeneity pattern tiled across the cluster: speeds
/// 1,1,4,4,1,1,4,4,…
fn perf_pattern(p: usize) -> Vec<u64> {
    (0..p).map(|i| if i % 4 < 2 { 1 } else { 4 }).collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Ring,
    Psrs,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Ring => "ring",
            Workload::Psrs => "psrs",
        }
    }
}

fn splitter_name(s: SplitterStrategy) -> &'static str {
    if s.is_grouped() {
        "grouped"
    } else {
        "flat"
    }
}

struct Cell {
    workload: Workload,
    p: usize,
    runtime: RuntimeKind,
    splitter: SplitterStrategy,
    /// Records sorted (PSRS) or rounds executed (ring).
    size: u64,
    makespan_sim: f64,
    wall_secs: f64,
    splitter_share: f64,
    alltoall_share: f64,
    /// Sublist expansion S(max) of the final shares (PSRS rows; 0 for
    /// the ring).
    expansion: f64,
    /// Per-level split timings (grouped PSRS rows only): the max across
    /// nodes of each stage's virtual seconds.
    split: Option<SplitTiming>,
}

impl Cell {
    fn sim_per_wall(&self) -> f64 {
        self.makespan_sim / self.wall_secs
    }
}

/// Throughput stress: `rounds` iterations of compute charge + blocking
/// nearest-neighbor ring exchange + barrier. Every round forces a park
/// on every node (the barrier alone guarantees it), so wall time is
/// dominated by the scheduler's park/wake path — a futex sleep per
/// blocking receive under threads, a `BTreeSet` insert under events.
fn run_ring_cell(p: usize, runtime: RuntimeKind, rounds: u32, trials: usize, seed: u64) -> Cell {
    let spec = ClusterSpec::new(perf_pattern(p))
        .with_seed(seed)
        .with_runtime(runtime);
    let mut wall_secs = f64::INFINITY;
    let mut report = None;
    for _ in 0..trials.max(1) {
        let t0 = Instant::now();
        let r = run_cluster(&spec, async move |ctx| {
            let right = (ctx.rank + 1) % ctx.p;
            let left = (ctx.rank + ctx.p - 1) % ctx.p;
            let mut sum = 0u64;
            for round in 0..rounds {
                ctx.charger.charge_work(Work::comparisons(1_000));
                ctx.send(right, Tag::user(7), round.to_le_bytes().to_vec());
                let msg = ctx.recv_from(left, Tag::user(7)).await;
                sum += msg.bytes.iter().map(|&b| b as u64).sum::<u64>();
                ctx.barrier().await;
            }
            sum
        });
        wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("at least one trial");
    // Every node saw every round's payload from its left neighbor.
    let want: u64 = (0..rounds)
        .map(|r| r.to_le_bytes().iter().map(|&b| b as u64).sum::<u64>())
        .sum();
    for nd in &report.nodes {
        assert_eq!(
            nd.value,
            want,
            "p={p} {}: ring payload lost",
            runtime.name()
        );
    }
    Cell {
        workload: Workload::Ring,
        p,
        runtime,
        splitter: SplitterStrategy::Flat,
        size: rounds as u64,
        makespan_sim: report.makespan.as_secs(),
        wall_secs,
        splitter_share: 0.0,
        alltoall_share: 0.0,
        expansion: 0.0,
        split: None,
    }
}

/// Phase-share cell: in-core PSRS on `p` nodes under `runtime` with the
/// given splitter strategy. Returns the simulated makespan, the
/// best-of-`trials` wall time, the makespan shares of the splitter-sort
/// and exchange phases, the sublist expansion and — for grouped rows —
/// the per-level split timings. Output correctness is asserted inline.
fn run_psrs_cell(
    p: usize,
    runtime: RuntimeKind,
    splitter: SplitterStrategy,
    n_per_node: u64,
    trials: usize,
    seed: u64,
) -> Cell {
    let perf = PerfVector::new(perf_pattern(p));
    let n = perf.padded_size(n_per_node * p as u64);
    let shares = perf.shares(n);
    let spec = ClusterSpec::new(perf_pattern(p))
        .with_seed(seed)
        .with_runtime(runtime);
    let mut wall_secs = f64::INFINITY;
    let mut report = None;
    for _ in 0..trials.max(1) {
        let pv = perf.clone();
        let shares = shares.clone();
        let t0 = Instant::now();
        let r = run_cluster(&spec, async move |ctx| {
            let local: Vec<u32> = (0..shares[ctx.rank]).map(|_| ctx.rng.next_u32()).collect();
            let outcome = psrs_incore_split(
                ctx,
                &pv,
                local,
                PivotStrategy::RegularSampling,
                splitter,
                SortKernel::default(),
            )
            .await;
            (outcome.sorted, outcome.split)
        });
        wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("at least one trial");

    // Correctness: the concatenated node outputs are the globally sorted
    // sequence of all n generated records.
    let total: usize = report.nodes.iter().map(|nd| nd.value.0.len()).sum();
    assert_eq!(total as u64, n, "p={p} {}: lost records", runtime.name());
    let mut prev = 0u32;
    for nd in &report.nodes {
        for &x in &nd.value.0 {
            assert!(x >= prev, "p={p} {}: output not sorted", runtime.name());
            prev = x;
        }
    }

    let sizes: Vec<u64> = report
        .nodes
        .iter()
        .map(|nd| nd.value.0.len() as u64)
        .collect();
    let expansion = LoadBalance::new(sizes, &perf).expansion();

    // Grouped rows report the slowest node's time in each split stage.
    let split = splitter.is_grouped().then(|| {
        let mut agg = SplitTiming::default();
        for nd in &report.nodes {
            let t = nd.value.1.as_ref().expect("grouped run records timings");
            agg.sample_gather_secs = agg.sample_gather_secs.max(t.sample_gather_secs);
            agg.leader_sort_secs = agg.leader_sort_secs.max(t.leader_sort_secs);
            agg.boundary_exchange_secs = agg.boundary_exchange_secs.max(t.boundary_exchange_secs);
        }
        agg
    });

    // Phase shares of the simulated makespan, taken from the slowest
    // node's span of each phase (what the makespan actually sees).
    let makespan_sim = report.makespan.as_secs();
    let share = |name: &str| {
        report
            .phase_breakdown()
            .iter()
            .find(|ph| ph.name == name)
            .map(|ph| ph.max().as_secs() / makespan_sim)
            .unwrap_or_else(|| panic!("p={p}: phase {name:?} missing"))
    };
    Cell {
        workload: Workload::Psrs,
        p,
        runtime,
        splitter,
        size: n,
        makespan_sim,
        wall_secs,
        splitter_share: share("pivots"),
        alltoall_share: share("redistribute"),
        expansion,
        split,
    }
}

fn main() {
    let args = Args::parse();
    // Communication-dominated sizing with un-clamped regular sampling:
    // `perf[i]·Σperf` samples per node exist only when every share holds
    // at least that many records, i.e. n >= (Σperf)² — per node, 6.25·p
    // under the 1,1,4,4 pattern. Below that the sample clamps to the
    // whole block and the flat-vs-grouped comparison degenerates.
    let n_per_node = |p: usize| -> u64 {
        let unclamped = (25 * p as u64).div_ceil(4);
        if args.paper {
            unclamped.max(16_384)
        } else if args.quick {
            unclamped.max(256)
        } else {
            unclamped.max(2_048)
        }
    };
    // Enough ring rounds that one-time thread-spawn cost stops dominating
    // the throughput cells and the per-round park/wake cost shows.
    let rounds: u32 = if args.paper {
        64
    } else if args.quick {
        16
    } else {
        32
    };
    let trials = args.trials.clamp(1, 5);
    let splitters: Vec<SplitterStrategy> = match args.splitter.as_deref() {
        Some("flat") => vec![SplitterStrategy::Flat],
        Some("grouped") => vec![SplitterStrategy::grouped()],
        _ => vec![SplitterStrategy::Flat, SplitterStrategy::grouped()],
    };

    println!(
        "scale sweep: p in {P_LADDER:?}, threads to p <= {THREADS_MAX_P}, flat splitter to \
         p <= {FLAT_MAX_P}, perf pattern 1,1,4,4,..., {rounds} ring rounds, best of {trials} trials"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for workload in [Workload::Ring, Workload::Psrs] {
        for &p in &P_LADDER {
            for runtime in [RuntimeKind::Threads, RuntimeKind::Events] {
                if runtime == RuntimeKind::Threads && p > THREADS_MAX_P {
                    continue;
                }
                let cell_splitters: &[SplitterStrategy] = match workload {
                    Workload::Ring => &[SplitterStrategy::Flat],
                    Workload::Psrs => &splitters,
                };
                for &splitter in cell_splitters {
                    if workload == Workload::Psrs && !splitter.is_grouped() && p > FLAT_MAX_P {
                        continue;
                    }
                    let cell = match workload {
                        Workload::Ring => run_ring_cell(p, runtime, rounds, trials, args.seed),
                        Workload::Psrs => {
                            run_psrs_cell(p, runtime, splitter, n_per_node(p), trials, args.seed)
                        }
                    };
                    println!(
                        "  {:>4} p={p:>4} {:>7} {:>7}  size={:>8}  sim {:>9.3}s  wall {:>8.4}s  \
                         {:>12.0} sim-s/wall-s  pivots {:>5.1}%  exchange {:>5.1}%  S(max) {:.3}",
                        workload.name(),
                        runtime.name(),
                        splitter_name(cell.splitter),
                        cell.size,
                        cell.makespan_sim,
                        cell.wall_secs,
                        cell.sim_per_wall(),
                        100.0 * cell.splitter_share,
                        100.0 * cell.alltoall_share,
                        cell.expansion,
                    );
                    cells.push(cell);
                }
            }
        }
    }

    // Blocking exchanges only: both schedulers must simulate the exact
    // same virtual run at every shared width, on both workloads and (for
    // PSRS) both splitter strategies.
    for &p in P_LADDER.iter().filter(|&&p| p <= THREADS_MAX_P) {
        let mut pairs: Vec<(Workload, SplitterStrategy)> =
            vec![(Workload::Ring, SplitterStrategy::Flat)];
        for &s in &splitters {
            pairs.push((Workload::Psrs, s));
        }
        for (workload, splitter) in pairs {
            let find = |rt: RuntimeKind| {
                cells
                    .iter()
                    .find(|c| {
                        c.workload == workload
                            && c.p == p
                            && c.runtime == rt
                            && c.splitter == splitter
                    })
                    .expect("cell present")
            };
            let (t, e) = (find(RuntimeKind::Threads), find(RuntimeKind::Events));
            assert_eq!(
                t.makespan_sim.to_bits(),
                e.makespan_sim.to_bits(),
                "{} {} p={p}: simulated makespan differs across runtimes ({} vs {})",
                workload.name(),
                splitter_name(splitter),
                t.makespan_sim,
                e.makespan_sim
            );
        }
    }

    let throughput = |p: usize, rt: RuntimeKind| {
        cells
            .iter()
            .find(|c| c.workload == Workload::Ring && c.p == p && c.runtime == rt)
            .expect("headline cell")
            .sim_per_wall()
    };
    let headline =
        throughput(HEADLINE_P, RuntimeKind::Events) / throughput(HEADLINE_P, RuntimeKind::Threads);

    let psrs_events = |p: usize, grouped: bool| {
        cells.iter().find(|c| {
            c.workload == Workload::Psrs
                && c.p == p
                && c.runtime == RuntimeKind::Events
                && c.splitter.is_grouped() == grouped
        })
    };
    // Flat/grouped makespan ratio at p = 256 (events): > 1 means the
    // two-level selection beats the O(p²) root sort. Only defined when
    // both strategies ran (no --splitter restriction).
    let grouped_speedup = match (psrs_events(GROUPED_P, false), psrs_events(GROUPED_P, true)) {
        (Some(flat), Some(grouped)) => Some(flat.makespan_sim / grouped.makespan_sim),
        _ => None,
    };

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.workload.name().into(),
                c.p.to_string(),
                c.runtime.name().into(),
                match c.workload {
                    Workload::Psrs => splitter_name(c.splitter).into(),
                    Workload::Ring => "-".to_string(),
                },
                c.size.to_string(),
                format!("{:.3}", c.makespan_sim),
                format!("{:.4}", c.wall_secs),
                format!("{:.0}", c.sim_per_wall()),
                format!("{:.3}", c.splitter_share),
                format!("{:.3}", c.alltoall_share),
                format!("{:.3}", c.expansion),
            ]
        })
        .collect();
    print_table(
        "Simulator scalability (ring stress + in-core PSRS, perf 1,1,4,4,...)",
        &[
            "workload",
            "p",
            "runtime",
            "splitter",
            "size",
            "sim s",
            "wall s",
            "sim-s/wall-s",
            "pivots share",
            "exchange share",
            "S(max)",
        ],
        &rows,
    );
    println!(
        "events vs threads at p = {HEADLINE_P} (ring stress): \
         {headline:.1}x simulated-seconds-per-wall-second"
    );
    if let Some(s) = grouped_speedup {
        println!(
            "grouped vs flat splitter at p = {GROUPED_P} (PSRS, events): \
             {s:.2}x simulated makespan"
        );
    }

    let n_headline = cells
        .iter()
        .find(|c| {
            c.workload == Workload::Psrs && c.p == HEADLINE_P && c.runtime == RuntimeKind::Events
        })
        .expect("headline cell")
        .size;
    let row_json = |c: &Cell| {
        let mut s = format!(
            "    {{\"workload\": \"{}\", \"p\": {}, \"runtime\": \"{}\", \"size\": {}, \
             \"makespan_sim_secs\": {:.6}, \"wall_secs\": {:.6}, \"sim_per_wall\": {:.2}",
            c.workload.name(),
            c.p,
            c.runtime.name(),
            c.size,
            c.makespan_sim,
            c.wall_secs,
            c.sim_per_wall(),
        );
        if c.workload == Workload::Psrs {
            s.push_str(&format!(
                ", \"splitter\": \"{}\", \"splitter_share\": {:.4}, \"alltoall_share\": {:.4}, \
                 \"sublist_expansion\": {:.4}",
                splitter_name(c.splitter),
                c.splitter_share,
                c.alltoall_share,
                c.expansion
            ));
        }
        if let Some(t) = &c.split {
            s.push_str(&format!(
                ", \"split_sample_gather_secs\": {:.6}, \"split_leader_sort_secs\": {:.6}, \
                 \"split_boundary_exchange_secs\": {:.6}",
                t.sample_gather_secs, t.leader_sort_secs, t.boundary_exchange_secs
            ));
        }
        s.push('}');
        s
    };
    let json_rows: Vec<String> = cells.iter().map(row_json).collect();
    let grouped_headline = grouped_speedup
        .map(|s| format!("  \"grouped_speedup_p256\": {s:.4},\n"))
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"n\": {n_headline},\n  \
         \"p_ladder\": [4, 16, 64, 256, 1024],\n  \"threads_max_p\": {THREADS_MAX_P},\n  \
         \"flat_max_p\": {FLAT_MAX_P},\n  \
         \"headline_p\": {HEADLINE_P},\n  \"ring_rounds\": {rounds},\n  \
         \"trials\": {trials},\n  \"events_vs_threads_p64\": {headline:.4},\n\
         {grouped_headline}  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("wrote BENCH_scale.json");

    if args.selftest {
        for workload in [Workload::Ring, Workload::Psrs] {
            let events_ps: Vec<usize> = cells
                .iter()
                .filter(|c| {
                    c.workload == workload
                        && c.runtime == RuntimeKind::Events
                        && (workload == Workload::Ring || c.splitter.is_grouped())
                })
                .map(|c| c.p)
                .collect();
            assert_eq!(
                events_ps,
                P_LADDER.to_vec(),
                "{}: event runtime must cover the full ladder including p = 1024",
                workload.name()
            );
        }
        for c in &cells {
            assert!(c.sim_per_wall() > 0.0);
            assert!(
                (0.0..=1.0).contains(&c.splitter_share) && (0.0..=1.0).contains(&c.alltoall_share),
                "p={} {}: phase shares out of range",
                c.p,
                c.runtime.name()
            );
            if let Some(t) = &c.split {
                assert!(
                    t.sample_gather_secs >= 0.0
                        && t.leader_sort_secs >= 0.0
                        && t.boundary_exchange_secs >= 0.0,
                    "p={}: negative split timings",
                    c.p
                );
            }
        }
        assert!(
            headline >= HEADLINE_GATE,
            "event runtime must run >= {HEADLINE_GATE}x more simulated seconds per wall \
             second than threads at p = {HEADLINE_P}, got {headline:.1}x"
        );
        // The whole point of the grouped splitter: at p = 256 the flat
        // root sort eats the makespan, the two-level selection does not —
        // and it must not buy that by unbalancing the shares.
        if let (Some(flat), Some(grouped)) =
            (psrs_events(GROUPED_P, false), psrs_events(GROUPED_P, true))
        {
            for c in [flat, grouped] {
                assert!(
                    c.expansion <= EXPANSION_CEIL,
                    "{} splitter at p = {GROUPED_P}: sublist expansion {:.3} breaks the \
                     {EXPANSION_CEIL}x bound",
                    splitter_name(c.splitter),
                    c.expansion
                );
            }
            assert!(
                flat.splitter_share >= FLAT_SHARE_FLOOR,
                "flat splitter share at p = {GROUPED_P} should exhibit the O(p²) wall \
                 (>= {FLAT_SHARE_FLOOR}), got {:.3}",
                flat.splitter_share
            );
            assert!(
                grouped.splitter_share < GROUPED_SHARE_CEIL,
                "grouped splitter share at p = {GROUPED_P} must stay < {GROUPED_SHARE_CEIL}, \
                 got {:.3}",
                grouped.splitter_share
            );
            let ratio = flat.makespan_sim / grouped.makespan_sim;
            assert!(
                ratio >= GROUPED_SPEEDUP_FLOOR,
                "grouped selection must beat flat at p = {GROUPED_P} by >= \
                 {GROUPED_SPEEDUP_FLOOR}x modeled makespan, got {ratio:.3}x \
                 ({} vs {})",
                grouped.makespan_sim,
                flat.makespan_sim
            );
        }
        println!("selftest ok");
    }
}
