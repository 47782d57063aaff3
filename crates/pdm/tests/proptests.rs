//! Property tests for the storage substrate: files round-trip through
//! both backends, I/O accounting matches block arithmetic, and striping
//! preserves logical order.

#![cfg(feature = "proptests")]
// Requires the `proptest` dev-dependency, not vendored offline; see README.

use proptest::collection::vec;
use proptest::prelude::*;

use pdm::record::{decode_all, encode_all, KeyPayload};
use pdm::{Disk, DiskArray, ScratchDir};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn u32_files_roundtrip_both_backends(
        data in vec(any::<u32>(), 0..2000),
        block in 4usize..128,
    ) {
        let block = block / 4 * 4; // whole records per block
        let block = block.max(4);
        let disk = Disk::in_memory(block);
        disk.write_file("f", &data).unwrap();
        prop_assert_eq!(disk.read_file::<u32>("f").unwrap(), data.clone());
        prop_assert_eq!(disk.len_records::<u32>("f").unwrap(), data.len() as u64);
    }

    #[test]
    fn file_backend_roundtrip(data in vec(any::<u64>(), 0..500)) {
        let scratch = ScratchDir::new("pdm-prop").unwrap();
        let disk = Disk::on_files(scratch.path(), 64);
        disk.write_file("f", &data).unwrap();
        prop_assert_eq!(disk.read_file::<u64>("f").unwrap(), data);
    }

    #[test]
    fn keypayload_roundtrip(pairs in vec((any::<u64>(), any::<u64>()), 0..400)) {
        let data: Vec<KeyPayload> =
            pairs.iter().map(|&(k, v)| KeyPayload::new(k, v)).collect();
        let disk = Disk::in_memory(64);
        disk.write_file("f", &data).unwrap();
        prop_assert_eq!(disk.read_file::<KeyPayload>("f").unwrap(), data);
    }

    #[test]
    fn encode_decode_inverse(data in vec(any::<i64>(), 0..500)) {
        prop_assert_eq!(decode_all::<i64>(&encode_all(&data)), data);
    }

    #[test]
    fn block_io_counts_match_arithmetic(n in 0usize..3000, records_per_block in 1usize..64) {
        let disk = Disk::in_memory(records_per_block * 4);
        let data: Vec<u32> = (0..n as u32).collect();
        disk.write_file("f", &data).unwrap();
        disk.read_file::<u32>("f").unwrap();
        let snap = disk.stats().snapshot();
        let blocks = n.div_ceil(records_per_block) as u64;
        prop_assert_eq!(snap.blocks_written, blocks);
        prop_assert_eq!(snap.blocks_read, blocks);
        prop_assert_eq!(snap.bytes_written, n as u64 * 4);
        prop_assert_eq!(snap.bytes_read, n as u64 * 4);
    }

    #[test]
    fn random_access_returns_right_record(data in vec(any::<u32>(), 1..1000), probes in vec(any::<u64>(), 1..30)) {
        let disk = Disk::in_memory(16);
        disk.write_file("f", &data).unwrap();
        let mut rd = disk.open_reader::<u32>("f").unwrap();
        for p in probes {
            let idx = p % data.len() as u64;
            prop_assert_eq!(rd.read_at(idx).unwrap(), data[idx as usize]);
        }
    }

    #[test]
    fn striped_array_preserves_logical_order(
        data in vec(any::<u32>(), 0..1500),
        d in 1usize..5,
    ) {
        let arr = DiskArray::in_memory(d, 16);
        let mut w = arr.striped_writer::<u32>("s").unwrap();
        w.push_all(&data).unwrap();
        prop_assert_eq!(w.finish().unwrap(), data.len() as u64);
        let mut r = arr.striped_reader::<u32>("s").unwrap();
        let mut out = Vec::new();
        while let Some(x) = r.next_record().unwrap() {
            out.push(x);
        }
        prop_assert_eq!(out, data.clone());
        // Striping balances blocks: the busiest disk carries at most its
        // fair share of blocks, written once and read back once.
        let per_disk_fair = (data.len().div_ceil(4)).div_ceil(d) as u64;
        prop_assert!(arr.parallel_ios() <= 2 * per_disk_fair);
        prop_assert_eq!(arr.total_io().bytes_written, data.len() as u64 * 4);
    }

    #[test]
    fn seek_then_stream_matches_suffix(data in vec(any::<u32>(), 1..800), start in any::<u64>()) {
        let disk = Disk::in_memory(32);
        disk.write_file("f", &data).unwrap();
        let start = start % (data.len() as u64 + 1);
        let mut rd = disk.open_reader::<u32>("f").unwrap();
        rd.seek(start);
        let mut out = Vec::new();
        while let Some(x) = rd.next_record().unwrap() {
            out.push(x);
        }
        prop_assert_eq!(out.as_slice(), &data[start as usize..]);
    }
}
