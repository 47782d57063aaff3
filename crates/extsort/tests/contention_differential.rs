//! Differential tests for the shared-disk contention model: pricing the
//! queue must be *observationally invisible*. The contention model only
//! changes what virtual time a delta costs — never the bytes on disk, and
//! never the I/O counters.

use extsort::{polyphase_sort, ExtSortConfig};
use pdm::{Disk, DiskModel, IoSnapshot, Record};
use workloads::{generate_block, Benchmark, Layout};

fn device_models() -> [DiskModel; 3] {
    [
        DiskModel::scsi_2000(),
        DiskModel::nvme_modern(),
        DiskModel::free(),
    ]
}

fn metered<R: Record, T>(
    model: &DiskModel,
    block_bytes: usize,
    data: &[R],
    f: impl FnOnce(&Disk) -> T,
) -> (Disk, T, IoSnapshot) {
    let disk = Disk::in_memory(block_bytes).with_model(model.clone());
    disk.write_file("in", data).unwrap();
    let before = disk.stats().snapshot();
    let out = f(&disk);
    let delta = disk.stats().snapshot().delta(&before);
    (disk, out, delta)
}

/// The contention model is pure pricing: running the *identical* sequential
/// sort on every device model produces byte-identical files and identical
/// I/O counters — queueing can only show up in virtual time.
#[test]
fn contention_pricing_never_touches_bytes_or_counters() {
    for bench in [Benchmark::Uniform, Benchmark::Gaussian, Benchmark::Zero] {
        let data = generate_block(bench, 47, Layout::single(2_000));
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        let mut baseline: Option<(Vec<u32>, IoSnapshot)> = None;
        for model in device_models() {
            let (disk, _, io) = metered(&model, 64, &data, |d| {
                polyphase_sort::<u32>(d, "in", "out", "pp", &cfg).unwrap()
            });
            let out = disk.read_file::<u32>("out").unwrap();
            match &baseline {
                None => baseline = Some((out, io)),
                Some((b_out, b_io)) => {
                    assert_eq!(&out, b_out, "{bench}/{}: output differs", model.name);
                    assert_eq!(&io, b_io, "{bench}/{}: metered I/O differs", model.name);
                }
            }
        }
    }
}
