//! Disk service-time models.
//!
//! Converts block-transfer counts into virtual time: one block I/O costs a
//! positioning overhead (`seek`) plus `bytes / bandwidth` of transfer. The
//! default model approximates the 8 GB SCSI drives of the paper's Alpha
//! cluster (c. 2000 hardware); a faster model is provided for "what would
//! this look like today" ablations.

use sim::SimDuration;

/// A linear disk service-time model.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskModel {
    /// Human-readable name, shown in the Table 1 reproduction.
    pub name: &'static str,
    /// Positioning overhead charged per block access (seek + rotational
    /// latency, amortized; sequential access pays a reduced share).
    pub seek: SimDuration,
    /// Sustained transfer bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Fraction of the full seek charged on *sequential* block accesses
    /// (track-to-track movement + controller overhead). Random accesses pay
    /// the full seek.
    pub sequential_seek_fraction: f64,
}

impl DiskModel {
    /// Late-90s SCSI drive, like the 8 GB drives in the paper's cluster:
    /// ~8 ms average positioning, ~18 MB/s sustained transfer.
    pub fn scsi_2000() -> Self {
        DiskModel {
            name: "SCSI-2000 (8ms seek, 18MB/s)",
            seek: SimDuration::from_millis(8.0),
            bytes_per_sec: 18.0e6,
            sequential_seek_fraction: 0.05,
        }
    }

    /// A modern NVMe-class device for ablations: negligible positioning,
    /// 2 GB/s transfer.
    pub fn nvme_modern() -> Self {
        DiskModel {
            name: "NVMe-modern (20us access, 2GB/s)",
            seek: SimDuration::from_micros(20.0),
            bytes_per_sec: 2.0e9,
            sequential_seek_fraction: 0.5,
        }
    }

    /// An idealized zero-cost disk, useful to isolate CPU/network effects.
    pub fn free() -> Self {
        DiskModel {
            name: "free (zero-cost)",
            seek: SimDuration::ZERO,
            bytes_per_sec: f64::INFINITY,
            sequential_seek_fraction: 0.0,
        }
    }

    /// Service time for one sequential block transfer of `bytes`.
    pub fn sequential_block(&self, bytes: u64) -> SimDuration {
        self.seek.scale(self.sequential_seek_fraction) + self.transfer(bytes)
    }

    /// Service time for one random (seeking) block transfer of `bytes`.
    pub fn random_block(&self, bytes: u64) -> SimDuration {
        self.seek + self.transfer(bytes)
    }

    /// Pure transfer time for `bytes`.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        if self.bytes_per_sec.is_infinite() {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs(bytes as f64 / self.bytes_per_sec)
        }
    }

    /// Total service time for an I/O snapshot delta as if the device were
    /// dedicated to one stream: sequential positioning for the plain
    /// transfers, full-seek cost for random reads, transfer priced by actual
    /// payload bytes (so a partial block pays one positioning charge but
    /// only its own bytes of transfer).
    pub fn service_time(&self, io: &crate::stats::IoSnapshot) -> SimDuration {
        let total_blocks = io.total_blocks();
        if total_blocks == 0 {
            return SimDuration::ZERO;
        }
        let seq_blocks = total_blocks.saturating_sub(io.random_reads);
        let seq_seek = self.seek.scale(self.sequential_seek_fraction) * seq_blocks as f64;
        let rand_seek = self.seek * io.random_reads as f64;
        seq_seek + rand_seek + self.transfer(io.total_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoSnapshot;

    #[test]
    fn transfer_scales_with_bytes() {
        let m = DiskModel::scsi_2000();
        let t1 = m.transfer(18_000_000);
        assert!((t1.as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(m.transfer(0), SimDuration::ZERO);
    }

    #[test]
    fn random_costs_more_than_sequential() {
        let m = DiskModel::scsi_2000();
        assert!(m.random_block(32 * 1024) > m.sequential_block(32 * 1024));
    }

    #[test]
    fn free_disk_is_free() {
        let m = DiskModel::free();
        assert_eq!(m.random_block(1 << 20), SimDuration::ZERO);
        assert_eq!(m.sequential_block(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn service_time_of_empty_delta_is_zero() {
        let m = DiskModel::scsi_2000();
        assert_eq!(m.service_time(&IoSnapshot::default()), SimDuration::ZERO);
    }

    fn test_model() -> DiskModel {
        DiskModel {
            name: "test",
            seek: SimDuration::from_millis(10.0),
            bytes_per_sec: 1e6,
            sequential_seek_fraction: 0.1,
        }
    }

    #[test]
    fn service_time_combines_components() {
        let m = test_model();
        let io = IoSnapshot {
            blocks_read: 3,
            blocks_written: 1,
            bytes_read: 3_000_000,
            bytes_written: 1_000_000,
            random_reads: 1,
            seek_bytes: 0,
            files_created: 0,
        };
        // 3 sequential blocks * 1ms + 1 random * 10ms + 4s transfer.
        let t = m.service_time(&io);
        assert!((t.as_secs() - (0.003 + 0.010 + 4.0)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn nvme_much_faster_than_scsi() {
        let io = IoSnapshot {
            blocks_read: 100,
            blocks_written: 100,
            bytes_read: 100 << 15,
            bytes_written: 100 << 15,
            random_reads: 0,
            seek_bytes: 0,
            files_created: 0,
        };
        assert!(
            DiskModel::nvme_modern().service_time(&io)
                < DiskModel::scsi_2000().service_time(&io) / 10.0
        );
    }

    /// Regression for the partial-block charging rule: a short (partial)
    /// block pays exactly one positioning charge, and transfer is priced by
    /// the bytes actually moved — not by blocks times a nominal block size.
    #[test]
    fn partial_blocks_pay_one_seek_and_their_own_bytes() {
        let m = test_model();
        let full = IoSnapshot {
            blocks_read: 1,
            bytes_read: 1_000_000,
            ..Default::default()
        };
        let partial = IoSnapshot {
            blocks_read: 1,
            bytes_read: 100_000,
            ..Default::default()
        };
        // Same single sequential positioning charge (1ms)...
        assert!((m.service_time(&full).as_secs() - (0.001 + 1.0)).abs() < 1e-9);
        // ...but the partial block's transfer shrinks with its payload.
        assert!((m.service_time(&partial).as_secs() - (0.001 + 0.1)).abs() < 1e-9);
        let diff = m.service_time(&full) - m.service_time(&partial);
        assert!((diff.as_secs() - m.transfer(900_000).as_secs()).abs() < 1e-9);
    }
}
