//! Failure-injection tests: corrupted or missing storage must surface as
//! errors (never as silently wrong sorted output), and the system's own
//! verification machinery must catch manufactured violations.

use extsort::{fingerprint_slice, ExtSortConfig, PipelineConfig};
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
