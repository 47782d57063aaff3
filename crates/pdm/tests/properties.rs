//! Properties of the storage substrate: files round-trip through both
//! backends, I/O accounting matches block arithmetic, and striping preserves
//! logical order. Each draws its cases from a fixed-seed [`sim::Pcg64`]: a
//! failure reproduces exactly and names its case.

use std::iter::from_fn;

use pdm::record::{decode_all, encode_all, KeyPayload};
use pdm::{Disk, DiskArray, ScratchDir};
use sim::rng::Rng;
use sim::Pcg64;

const CASES: usize = 96;

/// `min_len` to `max_len - 1` uniform `u32`s.
fn u32s(rng: &mut Pcg64, min_len: usize, max_len: usize) -> Vec<u32> {
    let len = min_len + rng.below_usize(max_len - min_len);
    (0..len).map(|_| rng.next_u32()).collect()
}

#[test]
fn u32_files_roundtrip_both_backends() {
    let scratch = ScratchDir::new("pdm-prop").unwrap();
    let mut rng = Pcg64::new(0xD15C_0001);
    for case in 0..CASES {
        let (data, name) = (u32s(&mut rng, 0, 2000), format!("f{case}"));
        let block = 4 * (1 + rng.below_usize(31)); // whole records per block
        let n = data.len() as u64;
        let files = Disk::on_files(scratch.path(), block).with_label("files");
        for disk in [Disk::in_memory(block).with_label("memory"), files] {
            disk.write_file(&name, &data).unwrap();
            let what = format!("case {case}: {n} records, block {block}, {}", disk.label());
            assert_eq!(disk.read_file::<u32>(&name).unwrap(), data, "{what}");
            assert_eq!(disk.len_records::<u32>(&name).unwrap(), n, "{what}");
        }
    }
}

#[test]
fn keypayload_roundtrip() {
    let mut rng = Pcg64::new(0xD15C_0003);
    for case in 0..CASES {
        let data: Vec<KeyPayload> = (0..rng.below(400))
            .map(|_| KeyPayload::new(rng.next_u64(), rng.next_u64()))
            .collect();
        let disk = Disk::in_memory(64);
        disk.write_file("f", &data).unwrap();
        let got = disk.read_file::<KeyPayload>("f").unwrap();
        assert_eq!(got, data, "case {case}: {} records", data.len());
    }
}

#[test]
fn encode_decode_inverse() {
    let mut rng = Pcg64::new(0xD15C_0004);
    for case in 0..CASES {
        let data: Vec<i64> = (0..rng.below(500)).map(|_| rng.next_u64() as i64).collect();
        assert_eq!(decode_all::<i64>(&encode_all(&data)), data, "case {case}");
    }
}

#[test]
fn block_io_counts_match_arithmetic() {
    let mut rng = Pcg64::new(0xD15C_0005);
    for case in 0..CASES {
        let (n, per_block) = (rng.below(3000), 1 + rng.below(63));
        let disk = Disk::in_memory(per_block as usize * 4);
        let data: Vec<u32> = (0..n as u32).collect();
        disk.write_file("f", &data).unwrap();
        disk.read_file::<u32>("f").unwrap();
        let io = disk.stats().snapshot();
        let blocks = n.div_ceil(per_block);
        let what = format!("case {case}: {n} records, {per_block} per block: {io:?}");
        assert_eq!([io.blocks_written, io.blocks_read], [blocks; 2], "{what}");
        assert_eq!([io.bytes_written, io.bytes_read], [n * 4; 2], "{what}");
    }
}

#[test]
fn random_access_returns_right_record() {
    let mut rng = Pcg64::new(0xD15C_0006);
    for case in 0..CASES {
        let data = u32s(&mut rng, 1, 1000);
        let disk = Disk::in_memory(16);
        disk.write_file("f", &data).unwrap();
        let mut rd = disk.open_reader::<u32>("f").unwrap();
        for _ in 0..1 + rng.below(29) {
            let i = rng.below(data.len() as u64);
            let what = format!("case {case}: record {i} of {}", data.len());
            assert_eq!(rd.read_at(i).unwrap(), data[i as usize], "{what}");
        }
    }
}

#[test]
fn striped_array_preserves_logical_order() {
    // The case an earlier randomized run shrank to comes first: four full
    // blocks and one partial on four disks.
    let recorded = [
        0, 0, 0, 0, 0, 477, 3281009654, 2597801172, 2125927132, 1213265474, 1627402555, 1677665047,
        3221840631, 1472996451, 1097738136, 215615741, 3876265090,
    ];
    let mut rng = Pcg64::new(0xD15C_0007);
    let mut cases = vec![(recorded.to_vec(), 4)];
    cases.extend((0..CASES).map(|_| (u32s(&mut rng, 0, 1500), 1 + rng.below_usize(4))));
    for (case, (data, d)) in cases.into_iter().enumerate() {
        let n = data.len() as u64;
        let what = format!("case {case}: {n} records on {d} disks");
        let arr = DiskArray::in_memory(d, 16);
        let mut w = arr.striped_writer::<u32>("s").unwrap();
        w.push_all(&data).unwrap();
        assert_eq!(w.finish().unwrap(), n, "{what}");
        let mut r = arr.striped_reader::<u32>("s").unwrap();
        let out: Vec<u32> = from_fn(|| r.next_record().unwrap()).collect();
        assert_eq!(out, data, "{what}");
        // Striping balances blocks: the busiest disk carries at most its
        // fair share of blocks, written once and read back once.
        let per_disk_fair = n.div_ceil(4).div_ceil(d as u64);
        assert!(arr.parallel_ios() <= 2 * per_disk_fair, "{what}");
        assert_eq!(arr.total_io().bytes_written, n * 4, "{what}");
    }
}

#[test]
fn seek_then_stream_matches_suffix() {
    let mut rng = Pcg64::new(0xD15C_0008);
    for case in 0..CASES {
        let data = u32s(&mut rng, 1, 800);
        let start = rng.below_usize(data.len() + 1);
        let disk = Disk::in_memory(32);
        disk.write_file("f", &data).unwrap();
        let mut rd = disk.open_reader::<u32>("f").unwrap();
        rd.seek(start as u64);
        let out: Vec<u32> = from_fn(|| rd.next_record().unwrap()).collect();
        let what = format!("case {case}: seek to {start} of {}", data.len());
        assert_eq!(out, &data[start..], "{what}");
    }
}
