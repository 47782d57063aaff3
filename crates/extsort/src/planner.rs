//! Merge-time prediction.
//!
//! Prices one k-way merge under the disk's [`DiskModel`] and a reference
//! CPU, mirroring how the charger bills the merge:
//!
//! * **I/O** — every data block is read once and written once, priced by
//!   [`DiskModel::service_time`].
//! * **CPU** — loser-tree selects (`records · ⌈log₂ fan_in⌉` of them) plus
//!   one record move per record. Selects are priced at the comparison
//!   rate, or the (cheaper) key-op rate when the merge runs a key-based
//!   kernel — the rate the charger actually bills.
//! * A pipelined merge is charged `max(cpu, io)`, a sequential one
//!   `cpu + io`.
//!
//! PSRS step 5 records this prediction next to its measured span, so
//! `--calibration-report` can show the model's residual per node.

use pdm::{DiskModel, IoSnapshot, Record};
use sim::SimDuration;

use crate::kernel::SortKernel;

/// Reference CPU prices for planning (defaults match the alpha_533 cost
/// model used by the cluster charger).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuCost {
    /// Nanoseconds per key comparison.
    pub ns_per_comparison: f64,
    /// Nanoseconds per record move.
    pub ns_per_record_move: f64,
    /// Nanoseconds per key operation — what a key-based (radix/ips4o)
    /// merge's tree selects actually bill, 4.7x cheaper than a full
    /// comparison. Calibrated against the charger's alpha_533 rates: a
    /// `--calibration-report` run showed key-based merges charging
    /// `merge.key_ops` at this rate while the planner priced the same
    /// selects as comparisons.
    pub ns_per_key_op: f64,
}

impl Default for CpuCost {
    fn default() -> Self {
        CpuCost {
            ns_per_comparison: 280.0,
            ns_per_record_move: 120.0,
            ns_per_key_op: 60.0,
        }
    }
}

/// The shape of one k-way merge, as the planner sees it.
#[derive(Debug, Clone, Copy)]
pub struct MergeShape {
    /// Sorted input segments.
    pub fan_in: usize,
    /// Total records across all segments.
    pub records: u64,
    /// Bytes per record.
    pub record_size: usize,
    /// PDM block size of the disk.
    pub block_bytes: usize,
    /// Whether the merge runs a key-based kernel: its selects are billed
    /// as key operations, not full comparisons.
    pub key_based: bool,
}

impl MergeShape {
    /// The shape of merging `records` records of `R` from `fan_in`
    /// segments on a disk with `block_bytes`-byte blocks under `kernel`.
    pub fn of<R: Record>(
        fan_in: usize,
        records: u64,
        block_bytes: usize,
        kernel: SortKernel,
    ) -> Self {
        MergeShape {
            fan_in,
            records,
            record_size: R::SIZE,
            block_bytes,
            key_based: kernel.key_based::<R>(),
        }
    }

    /// Data blocks the merge reads (and writes): `⌈bytes / block⌉`.
    fn data_blocks(&self) -> u64 {
        (self.records * self.record_size as u64).div_ceil(self.block_bytes.max(1) as u64)
    }

    /// The I/O delta the merge is predicted to produce: every data block
    /// read and written once, into one new file.
    fn predicted_io(&self) -> IoSnapshot {
        let blocks = self.data_blocks();
        let bytes = self.records * self.record_size as u64;
        IoSnapshot {
            blocks_read: blocks,
            blocks_written: blocks,
            bytes_read: bytes,
            bytes_written: bytes,
            random_reads: 0,
            seek_bytes: 0,
            files_created: 1,
        }
    }
}

/// Predicted virtual time of merging `shape` on a device priced by
/// `model`: `max(cpu, io)` when the merge is `overlapped` (the pipeline is
/// on), `cpu + io` otherwise.
pub fn predict_merge_time(
    model: &DiskModel,
    cpu: &CpuCost,
    shape: &MergeShape,
    overlapped: bool,
) -> SimDuration {
    let (cpu_time, io_time) = predict_merge_parts(model, cpu, shape);
    if overlapped {
        cpu_time.max(io_time)
    } else {
        cpu_time + io_time
    }
}

/// The (cpu, io) components of [`predict_merge_time`].
fn predict_merge_parts(
    model: &DiskModel,
    cpu: &CpuCost,
    shape: &MergeShape,
) -> (SimDuration, SimDuration) {
    let selects = shape.records * ceil_log2(shape.fan_in.max(2) as u64);
    let ns_per_select = if shape.key_based {
        cpu.ns_per_key_op
    } else {
        cpu.ns_per_comparison
    };
    let compare = SimDuration::from_secs(selects as f64 * ns_per_select * 1e-9);
    let moves = SimDuration::from_secs(shape.records as f64 * cpu.ns_per_record_move * 1e-9);
    let io_time = model.service_time(&shape.predicted_io());
    (compare + moves, io_time)
}

fn ceil_log2(x: u64) -> u64 {
    (u64::BITS - (x - 1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> MergeShape {
        MergeShape {
            fan_in: 8,
            records: 1 << 20,
            record_size: 4,
            block_bytes: 32 * 1024,
            key_based: false,
        }
    }

    #[test]
    fn key_based_selects_price_at_the_key_op_rate() {
        let cpu = CpuCost::default();
        let model = DiskModel::free();
        let cmp = shape();
        let key = MergeShape {
            key_based: true,
            ..cmp
        };
        // Free disk: the prediction is pure CPU. The select side must drop
        // by exactly the key-op/comparison ratio; moves stay unchanged.
        let (cmp_cpu, _) = predict_merge_parts(&model, &cpu, &cmp);
        let (key_cpu, _) = predict_merge_parts(&model, &cpu, &key);
        let moves = SimDuration::from_secs(cmp.records as f64 * cpu.ns_per_record_move * 1e-9);
        let cmp_selects = (cmp_cpu - moves).as_secs();
        let key_selects = (key_cpu - moves).as_secs();
        let ratio = cmp_selects / key_selects;
        let want = cpu.ns_per_comparison / cpu.ns_per_key_op;
        assert!(
            (ratio - want).abs() < 1e-9,
            "select pricing ratio {ratio} != rate ratio {want}"
        );
    }

    #[test]
    fn predicted_io_moves_every_block_once() {
        let s = shape();
        let io = s.predicted_io();
        assert_eq!(io.blocks_read, s.data_blocks());
        assert_eq!(io.blocks_written, s.data_blocks());
        assert_eq!(io.random_reads, 0);
        let scsi = DiskModel::scsi_2000();
        let cpu = CpuCost::default();
        let (c, i) = predict_merge_parts(&scsi, &cpu, &s);
        assert_eq!(predict_merge_time(&scsi, &cpu, &s, false), c + i);
        assert_eq!(predict_merge_time(&scsi, &cpu, &s, true), c.max(i));
    }
}
