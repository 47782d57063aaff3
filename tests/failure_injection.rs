//! Failure-injection tests: corrupted or missing storage must surface as
//! errors (never as silently wrong sorted output), the system's own
//! verification machinery must catch manufactured violations, and a
//! cluster whose node panics or skips a collective must fail within a
//! second, naming the node or every parked rank.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use cluster::{run_cluster, ClusterSpec, NodeCtx, RuntimeKind, Tag};
use extsort::{fingerprint_slice, ExtSortConfig, PipelineConfig};
use hetsort::{psrs_external, ExternalPsrsConfig, GroupLayout, PerfVector, SplitterStrategy};
use pdm::{Disk, PdmError};
use workloads::{generate_to_disk, Benchmark, Layout};

#[test]
fn sorting_a_missing_input_errors() {
    let disk = Disk::in_memory(1024);
    let cfg = ExtSortConfig::new(4096).with_tapes(4);
    let err = extsort::polyphase_sort::<u32>(&disk, "nope", "out", "j", &cfg).unwrap_err();
    assert!(matches!(err, PdmError::NotFound(_)), "{err}");
}

#[test]
fn sorting_a_torn_input_errors() {
    let disk = Disk::in_memory(1024);
    generate_to_disk(&disk, "in", Benchmark::Uniform, 1, Layout::single(5000)).unwrap();
    // A torn write: byte length no longer a record multiple.
    disk.truncate("in", 5000 * 4 - 3).unwrap();
    for pipeline in [PipelineConfig::off(), PipelineConfig::with_workers(2)] {
        let cfg = ExtSortConfig::new(1024)
            .with_tapes(4)
            .with_pipeline(pipeline);
        let err = extsort::polyphase_sort::<u32>(&disk, "in", "out", "j", &cfg).unwrap_err();
        assert!(
            matches!(err, PdmError::Corrupt { .. }),
            "{pipeline:?}: {err}"
        );
    }
}

#[test]
fn truncation_mid_read_detected() {
    let disk = Disk::in_memory(1024);
    generate_to_disk(&disk, "in", Benchmark::Uniform, 2, Layout::single(4096)).unwrap();
    let mut rd = disk.open_reader::<u32>("in").unwrap();
    assert!(rd.next_record().unwrap().is_some());
    // Concurrent truncation to a record-aligned but shorter length: the
    // reader's declared length is now a lie and refills must fail loudly.
    disk.truncate("in", 1024).unwrap();
    rd.seek(2048);
    let err = rd.next_record().unwrap_err();
    assert!(matches!(err, PdmError::Corrupt { .. }), "{err}");
}

#[test]
fn double_create_errors_instead_of_clobbering() {
    let disk = Disk::in_memory(1024);
    disk.write_file::<u32>("out", &[1, 2, 3]).unwrap();
    let err = disk.create_writer::<u32>("out").unwrap_err();
    assert!(matches!(err, PdmError::AlreadyExists(_)), "{err}");
    // Original content survives.
    assert_eq!(disk.read_file::<u32>("out").unwrap(), vec![1, 2, 3]);
}

#[test]
fn fingerprints_catch_manufactured_corruption() {
    // If a sort (or a network transfer) dropped, duplicated or altered a
    // record, the multiset fingerprint comparison must notice.
    let good: Vec<u32> = (0..10_000u32)
        .map(|i| i.wrapping_mul(2654435761) % 100_000)
        .collect();
    let fp = fingerprint_slice(&good);

    let mut dropped = good.clone();
    dropped.pop();
    assert_ne!(fp, fingerprint_slice(&dropped));

    let mut duplicated = good.clone();
    duplicated.push(good[0]);
    assert_ne!(fp, fingerprint_slice(&duplicated));

    let mut flipped = good.clone();
    flipped[5000] ^= 1;
    assert_ne!(fp, fingerprint_slice(&flipped));

    let mut swapped = good.clone();
    swapped.swap(1, 9_000);
    assert_eq!(fp, fingerprint_slice(&swapped), "order must not matter");
}

#[test]
fn out_of_range_sampling_errors() {
    let disk = Disk::in_memory(1024);
    disk.write_file::<u32>("f", &[1, 2, 3]).unwrap();
    let mut rd = disk.open_reader::<u32>("f").unwrap();
    let err = rd.read_at(3).unwrap_err();
    assert!(matches!(err, PdmError::OutOfRange { .. }), "{err}");
}

#[test]
fn blocksize_smaller_than_record_rejected() {
    let disk = Disk::in_memory(8); // KeyPayload is 16 bytes
    let err = disk
        .create_writer::<pdm::record::KeyPayload>("x")
        .unwrap_err();
    assert!(matches!(err, PdmError::InvalidConfig(_)), "{err}");
    assert!(
        err.to_string().contains("smaller than record size"),
        "{err}"
    );
    assert!(
        !disk.exists("x"),
        "failed create must not leave a file behind"
    );
}

/// Runs `f` on `spec`'s cluster, which must fail; returns the panic
/// message and the run's wall seconds.
fn failed_run<T: Send + std::fmt::Debug>(
    spec: &ClusterSpec,
    f: impl AsyncFn(&mut NodeCtx) -> T + Send + Sync,
) -> (String, f64) {
    let t0 = Instant::now();
    let err = panic::catch_unwind(AssertUnwindSafe(|| run_cluster(spec, f)))
        .expect_err("the cluster run must fail");
    let secs = t0.elapsed().as_secs_f64();
    (
        *err.downcast::<String>().expect("a formatted message"),
        secs,
    )
}

#[test]
fn a_node_panic_mid_collective_ends_the_run_within_a_second() {
    for (runtime, p) in [(RuntimeKind::Threads, 16), (RuntimeKind::Events, 64)] {
        let spec = ClusterSpec::homogeneous(p).with_runtime(runtime);
        let victim = p / 2 + 1;
        let (msg, secs) = failed_run(&spec, async |ctx| {
            ctx.barrier().await;
            // A hand-rolled all-to-all: every node sends to each peer, then
            // receives from each. The victim dies halfway through its
            // sends, so its peers are parked inside the exchange.
            let tag = Tag::user(1);
            let peers: Vec<usize> = (0..ctx.p).filter(|&r| r != ctx.rank).collect();
            for &to in &peers {
                if ctx.rank == victim && to >= ctx.p / 2 {
                    panic!("node {victim} lost its link mid-exchange");
                }
                ctx.send(to, tag, vec![ctx.rank as u8; 64]);
            }
            for &from in &peers {
                let _ = ctx.recv_from(from, tag).await;
            }
        });
        assert!(
            msg.contains(&format!("node {victim} lost its link mid-exchange")),
            "{runtime:?}: the node's own message must survive: {msg}"
        );
        assert!(secs < 1.0, "{runtime:?} p={p}: took {secs:.2} s");
    }
}

#[test]
fn a_node_that_skips_a_collective_gets_the_deadlock_report_within_a_second() {
    // p = 9 runs the grouped splitter over three groups of three; the
    // skipper never joins its group's sample gather, so the run parks
    // inside group-scoped collectives.
    let perf = PerfVector::new(vec![1, 2, 1, 4, 1, 2, 4, 1, 2]);
    let n = perf.padded_size(9 * 1_000);
    let layouts = Layout::cluster(&perf.shares(n));
    let skipper = 4;
    let skipper_group = format!("[comm group g{}]", GroupLayout::new(9).group_of(skipper));
    let cfg = ExternalPsrsConfig::new(perf.clone(), 1 << 12)
        .with_tapes(4)
        .with_msg_records(128)
        .with_splitter(SplitterStrategy::grouped());
    for runtime in [RuntimeKind::Threads, RuntimeKind::Events] {
        let spec = ClusterSpec::new(perf.as_slice().to_vec())
            .with_block_bytes(1024)
            .with_runtime(runtime);
        let (report, secs) = failed_run(&spec, async |ctx| {
            generate_to_disk(&ctx.disk, "input", Benchmark::Uniform, 7, layouts[ctx.rank]).unwrap();
            if ctx.rank != skipper {
                psrs_external::<u32>(ctx, &cfg).await.unwrap();
            }
        });
        assert!(
            report.contains("cluster deadlocked"),
            "{runtime:?}: {report}"
        );
        // Every rank is parked and labelled with its comm group; the
        // skipper waits in the final barrier on the global communicator.
        let line = |rank: usize| {
            let parked = format!("  node {rank}: parked");
            report
                .lines()
                .find(|l| l.starts_with(&parked))
                .unwrap_or_default()
        };
        for rank in 0..9 {
            assert!(
                line(rank).contains(" ["),
                "{runtime:?} node {rank}: {report}"
            );
        }
        assert!(line(skipper).ends_with("[global comm]"), "{report}");
        assert!(report.contains(&skipper_group), "{runtime:?}: {report}");
        assert!(secs < 1.0, "{runtime:?}: took {secs:.2} s");
    }
}
