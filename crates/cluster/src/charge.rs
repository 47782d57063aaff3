//! Converting work into virtual time.
//!
//! One [`Charger`] per node owns the node's clock and knows the node's
//! slowdown factor. Every charge path multiplies by the slowdown (loaded
//! nodes run everything slower — CPU *and* disk service, matching the
//! paper's protocol where the calibration ratio is measured on the whole
//! external sort) and by a seeded log-normal jitter factor.
//!
//! Disk I/O is charged exclusively through [`Charger::sync_io`], which
//! prices the block-counter delta since the previous sync; algorithm code
//! calls it at phase boundaries. Compute sections go through
//! [`Charger::compute`], which supports both the analytic
//! ([`TimePolicy::Modeled`]) and the wall-clock ([`TimePolicy::Measured`])
//! policies.

use pdm::{Disk, IoSnapshot};
use sim::{Jitter, SimDuration, SimTime};

use crate::clock::NodeClock;
use crate::cost::CpuModel;
use crate::spec::TimePolicy;

/// Counted work for one compute section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Key comparisons.
    pub comparisons: u64,
    /// Record moves (buffer copies).
    pub moves: u64,
    /// Key-kernel operations (radix-pass record touches, cached-key
    /// tournament selects) — priced by [`CpuModel::key_ops`], much cheaper
    /// per unit than a full comparison.
    pub key_ops: u64,
}

impl Work {
    /// Work consisting only of comparisons.
    pub fn comparisons(n: u64) -> Self {
        Work {
            comparisons: n,
            ..Work::default()
        }
    }

    /// Work consisting only of record moves.
    pub fn moves(n: u64) -> Self {
        Work {
            moves: n,
            ..Work::default()
        }
    }

    /// Work consisting only of key-kernel operations.
    pub fn key_ops(n: u64) -> Self {
        Work {
            key_ops: n,
            ..Work::default()
        }
    }

    /// Combines two work tallies.
    #[must_use]
    pub fn plus(self, other: Work) -> Work {
        Work {
            comparisons: self.comparisons + other.comparisons,
            moves: self.moves + other.moves,
            key_ops: self.key_ops + other.key_ops,
        }
    }
}

/// The largest single clock jump caused by a message arrival since the
/// last [`Charger::take_dominant`]. Pure bookkeeping for the critical-path
/// analyzer: identifies which sender the node was actually waiting on
/// during a phase, and when that message departed the sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DominantWait {
    /// Rank of the sender whose message caused the jump.
    pub from: usize,
    /// Virtual time the message left the sender.
    pub depart: SimTime,
    /// Virtual time the message arrived (the clock's new value).
    pub arrival: SimTime,
    /// Size of the clock jump.
    pub jump: SimDuration,
}

/// Per-node time accounting.
#[derive(Debug)]
pub struct Charger {
    clock: NodeClock,
    cpu: CpuModel,
    slowdown: f64,
    jitter: Jitter,
    disk: Disk,
    last_io: IoSnapshot,
    policy: TimePolicy,
    /// Cumulative breakdown (reference-speed seconds are *not* kept; these
    /// are post-slowdown, post-jitter charges).
    cpu_time: SimDuration,
    io_time: SimDuration,
    wait_time: SimDuration,
    overlap_saved: SimDuration,
    /// Read/write split of [`Self::io_time`]: each charged delta is
    /// apportioned by the ratio of its raw read-only and write-only service
    /// prices, so `io_read_time + io_write_time == io_time` exactly.
    io_read_time: SimDuration,
    io_write_time: SimDuration,
    /// Largest arrival-induced clock jump since the last `take_dominant`.
    dominant: Option<DominantWait>,
}

impl Charger {
    /// Creates a charger for one node.
    pub fn new(
        cpu: CpuModel,
        slowdown: f64,
        jitter: Jitter,
        disk: Disk,
        policy: TimePolicy,
    ) -> Self {
        assert!(slowdown >= 1.0, "slowdown must be >= 1, got {slowdown}");
        let last_io = disk.stats().snapshot();
        Charger {
            clock: NodeClock::new(),
            cpu,
            slowdown,
            jitter,
            disk,
            last_io,
            policy,
            cpu_time: SimDuration::ZERO,
            io_time: SimDuration::ZERO,
            wait_time: SimDuration::ZERO,
            overlap_saved: SimDuration::ZERO,
            io_read_time: SimDuration::ZERO,
            io_write_time: SimDuration::ZERO,
            dominant: None,
        }
    }

    /// Current virtual time on this node.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Runs a compute section, charging per the active policy.
    pub fn compute<T>(&mut self, estimate: Work, f: impl FnOnce() -> T) -> T {
        match self.policy {
            TimePolicy::Modeled => {
                let out = f();
                self.charge_work(estimate);
                out
            }
            TimePolicy::Measured => {
                let start = std::time::Instant::now();
                let out = f();
                let elapsed = SimDuration::from_secs(start.elapsed().as_secs_f64());
                self.charge_cpu_raw(elapsed);
                out
            }
        }
    }

    /// Charges a completed section for which both the counted work and the
    /// real elapsed time are known (the work counts usually come from a
    /// sorter's report, available only *after* the section ran). Uses the
    /// counts under [`TimePolicy::Modeled`] and the wall time under
    /// [`TimePolicy::Measured`].
    pub fn charge_section(&mut self, work: Work, elapsed: std::time::Duration) {
        match self.policy {
            TimePolicy::Modeled => self.charge_work(work),
            TimePolicy::Measured => {
                self.charge_cpu_raw(SimDuration::from_secs(elapsed.as_secs_f64()))
            }
        }
    }

    /// Charges a completed *pipelined* section: computation and disk
    /// transfers overlapped, so the phase costs `max(cpu, io)` instead of
    /// `cpu + io`. Prices the same quantities as the sequential
    /// [`Self::charge_section`] + [`Self::sync_io`] pair — same work counts,
    /// same block-counter delta, same two jitter draws in the same order —
    /// and advances the clock by the larger of the two charges. The smaller
    /// charge (the hidden one) is accumulated in [`Self::overlap_saved`].
    ///
    /// Both components still land in the [`Self::cpu_time`] /
    /// [`Self::io_time`] breakdowns, so `cpu_time + io_time` can exceed
    /// elapsed virtual time on a pipelined node; the breakdowns answer
    /// "how busy was each resource", the clock answers "how long did it
    /// take".
    pub fn charge_overlapped_section(
        &mut self,
        work: Work,
        elapsed: std::time::Duration,
    ) -> IoSnapshot {
        let cpu_raw = match self.policy {
            TimePolicy::Modeled => {
                self.cpu.comparisons(work.comparisons)
                    + self.cpu.record_moves(work.moves)
                    + self.cpu.key_ops(work.key_ops)
            }
            TimePolicy::Measured => SimDuration::from_secs(elapsed.as_secs_f64()),
        };
        let charged_cpu = self.jitter.apply(cpu_raw.scale(self.slowdown));

        let now = self.disk.stats().snapshot();
        let delta = now.delta(&self.last_io);
        self.last_io = now;
        let charged_io = self.charge_io_delta(&delta);

        self.cpu_time += charged_cpu;
        let advance = charged_cpu.max(charged_io);
        self.overlap_saved += charged_cpu + charged_io - advance;
        self.clock.advance(advance);
        delta
    }

    /// Prices one I/O delta at the disk's service time and returns the
    /// charge (not yet applied to the clock).
    fn charge_io_delta(&mut self, delta: &IoSnapshot) -> SimDuration {
        let model = self.disk.model();
        let io_raw = model.service_time(delta);
        let charged_io = self.jitter.apply(io_raw.scale(self.slowdown));
        // Split the single charge into read and write shares by pricing the
        // read-only and write-only sub-deltas at raw (un-jittered) service
        // time. No extra jitter draws: the split only apportions the
        // charge already drawn above, keeping the clock bit-identical.
        let read_delta = IoSnapshot {
            blocks_read: delta.blocks_read,
            bytes_read: delta.bytes_read,
            random_reads: delta.random_reads,
            seek_bytes: delta.seek_bytes,
            ..Default::default()
        };
        let write_delta = IoSnapshot {
            blocks_written: delta.blocks_written,
            bytes_written: delta.bytes_written,
            files_created: delta.files_created,
            ..Default::default()
        };
        let read_raw = model.service_time(&read_delta).as_secs();
        let write_raw = model.service_time(&write_delta).as_secs();
        let total_raw = read_raw + write_raw;
        if total_raw > 0.0 {
            let read_share = charged_io.scale(read_raw / total_raw);
            self.io_read_time += read_share;
            self.io_write_time += charged_io - read_share;
        }
        self.io_time += charged_io;
        charged_io
    }

    /// Charges counted work at reference speed ÷ node speed.
    pub fn charge_work(&mut self, w: Work) {
        let t = self.cpu.comparisons(w.comparisons)
            + self.cpu.record_moves(w.moves)
            + self.cpu.key_ops(w.key_ops);
        self.charge_cpu_raw(t);
    }

    /// Charges a raw reference-speed CPU duration (scaled and jittered).
    pub fn charge_cpu_raw(&mut self, t: SimDuration) {
        let charged = self.jitter.apply(t.scale(self.slowdown));
        self.cpu_time += charged;
        self.clock.advance(charged);
    }

    /// Prices all block I/O performed since the last call and advances the
    /// clock. Call at phase boundaries (and before reading [`Self::now`]
    /// for reporting).
    pub fn sync_io(&mut self) -> IoSnapshot {
        let now = self.disk.stats().snapshot();
        let delta = now.delta(&self.last_io);
        self.last_io = now;
        let charged = self.charge_io_delta(&delta);
        self.clock.advance(charged);
        delta
    }

    /// Zeroes the clock and all accumulated times, and absorbs (without
    /// charging) any un-synced I/O. Used to exclude setup work — the paper's
    /// timings "do not comprise the initial distribution of data". Only call
    /// at a point where all nodes reset together (right after a barrier),
    /// or Lamport timestamps lose their meaning.
    pub fn reset(&mut self) {
        self.last_io = self.disk.stats().snapshot();
        self.clock = NodeClock::new();
        self.cpu_time = SimDuration::ZERO;
        self.io_time = SimDuration::ZERO;
        self.wait_time = SimDuration::ZERO;
        self.overlap_saved = SimDuration::ZERO;
        self.io_read_time = SimDuration::ZERO;
        self.io_write_time = SimDuration::ZERO;
        self.dominant = None;
    }

    /// Merges a message arrival timestamp (may jump the clock forward).
    /// The jump is accounted as wait time.
    pub fn merge_arrival(&mut self, arrival: SimTime) {
        let before = self.clock.now();
        self.clock.merge(arrival);
        self.wait_time += self.clock.now().since(before);
    }

    /// [`Self::merge_arrival`] with sender provenance: if this arrival jumps
    /// the clock further than any other since the last [`Self::take_dominant`],
    /// it is remembered as the dominant wait. Pure bookkeeping — the clock
    /// and wait accounting are bit-identical to `merge_arrival`.
    pub fn merge_arrival_from(&mut self, arrival: SimTime, from: usize, depart: SimTime) {
        let before = self.clock.now();
        self.clock.merge(arrival);
        let jump = self.clock.now().since(before);
        self.wait_time += jump;
        if jump > SimDuration::ZERO && self.dominant.is_none_or(|d| jump > d.jump) {
            self.dominant = Some(DominantWait {
                from,
                depart,
                arrival: self.clock.now(),
                jump,
            });
        }
    }

    /// Takes (and clears) the dominant message wait recorded since the last
    /// call. `None` if no arrival jumped the clock in the interval.
    pub fn take_dominant(&mut self) -> Option<DominantWait> {
        self.dominant.take()
    }

    /// Cumulative charged CPU time.
    pub fn cpu_time(&self) -> SimDuration {
        self.cpu_time
    }

    /// Cumulative charged disk time.
    pub fn io_time(&self) -> SimDuration {
        self.io_time
    }

    /// Cumulative time spent waiting on messages.
    pub fn wait_time(&self) -> SimDuration {
        self.wait_time
    }

    /// Read share of [`Self::io_time`] (apportioned per charged delta by
    /// raw service price).
    pub fn io_read_time(&self) -> SimDuration {
        self.io_read_time
    }

    /// Write share of [`Self::io_time`].
    pub fn io_write_time(&self) -> SimDuration {
        self.io_write_time
    }

    /// Always zero. A node's disk serves one request stream, so no share
    /// of [`Self::io_time`] is queueing; kept only because perfbench
    /// still reads it.
    pub fn io_queue_wait(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Cumulative time hidden by pipelining: for every overlapped section,
    /// the smaller of its CPU and I/O charges (what a sequential execution
    /// would have paid on top of the clock advance).
    pub fn overlap_saved(&self) -> SimDuration {
        self.overlap_saved
    }

    /// The disk whose counters this charger prices.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::DiskModel;

    fn test_charger(slowdown: f64) -> Charger {
        let disk = Disk::in_memory(64).with_model(DiskModel::scsi_2000());
        Charger::new(
            CpuModel::alpha_533(),
            slowdown,
            Jitter::none(),
            disk,
            TimePolicy::Modeled,
        )
    }

    #[test]
    fn work_constructors_and_plus() {
        let w = Work::comparisons(10)
            .plus(Work::moves(5))
            .plus(Work::key_ops(7))
            .plus(Work {
                comparisons: 2,
                moves: 3,
                key_ops: 1,
            });
        assert_eq!(w.comparisons, 12);
        assert_eq!(w.moves, 8);
        assert_eq!(w.key_ops, 8);
        let zero = Work::default();
        assert_eq!(zero.comparisons, 0);
        assert_eq!(zero.moves, 0);
        assert_eq!(zero.key_ops, 0);
    }

    #[test]
    fn key_ops_charged_cheaper_than_comparisons() {
        let mut by_cmp = test_charger(1.0);
        let mut by_key = test_charger(1.0);
        by_cmp.charge_work(Work::comparisons(1_000_000));
        by_key.charge_work(Work::key_ops(1_000_000));
        assert!(by_key.now() < by_cmp.now());
        assert!(by_key.now().as_secs() > 0.0);
    }

    #[test]
    fn charge_section_respects_policy() {
        let mut modeled = test_charger(1.0);
        modeled.charge_section(
            Work::comparisons(1_000_000),
            std::time::Duration::from_secs(99),
        );
        // Modeled: uses the counts (0.28 s), not the 99 s wall time.
        assert!((modeled.now().as_secs() - 0.28).abs() < 1e-9);

        let disk = Disk::in_memory(64);
        let mut measured = Charger::new(
            CpuModel::alpha_533(),
            2.0,
            Jitter::none(),
            disk,
            TimePolicy::Measured,
        );
        measured.charge_section(
            Work::comparisons(1_000_000),
            std::time::Duration::from_millis(100),
        );
        // Measured: wall time x slowdown.
        assert!((measured.now().as_secs() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = test_charger(1.0);
        c.charge_work(Work::comparisons(1000));
        c.disk().write_file::<u32>("f", &[1, 2, 3]).unwrap();
        c.reset();
        assert_eq!(c.now().as_secs(), 0.0);
        assert_eq!(c.cpu_time().as_secs(), 0.0);
        // The pre-reset I/O was absorbed: a sync after reset charges nothing.
        c.sync_io();
        assert_eq!(c.io_time().as_secs(), 0.0);
    }

    #[test]
    fn work_charges_scale_with_slowdown() {
        let mut fast = test_charger(1.0);
        let mut slow = test_charger(4.0);
        fast.charge_work(Work::comparisons(1_000_000));
        slow.charge_work(Work::comparisons(1_000_000));
        let f = fast.now().as_secs();
        let s = slow.now().as_secs();
        assert!((s - 4.0 * f).abs() < 1e-12, "slow {s} vs fast {f}");
    }

    #[test]
    fn compute_returns_value_and_charges() {
        let mut c = test_charger(1.0);
        let v = c.compute(Work::comparisons(1000), || 7 * 6);
        assert_eq!(v, 42);
        assert!(c.now().as_secs() > 0.0);
        assert_eq!(c.cpu_time().as_secs(), c.now().as_secs());
    }

    #[test]
    fn sync_io_prices_block_deltas() {
        let mut c = test_charger(1.0);
        c.disk()
            .write_file::<u32>("f", &(0..64).collect::<Vec<_>>())
            .unwrap();
        let delta = c.sync_io();
        assert!(delta.blocks_written > 0);
        assert!(c.io_time().as_secs() > 0.0);
        // Second sync with no new I/O charges nothing.
        let t = c.now();
        let delta2 = c.sync_io();
        assert_eq!(delta2.total_blocks(), 0);
        assert_eq!(c.now(), t);
    }

    #[test]
    fn io_also_scaled_by_slowdown() {
        let mut fast = test_charger(1.0);
        let mut slow = test_charger(4.0);
        let data: Vec<u32> = (0..256).collect();
        fast.disk().write_file("f", &data).unwrap();
        slow.disk().write_file("f", &data).unwrap();
        fast.sync_io();
        slow.sync_io();
        assert!((slow.io_time().as_secs() - 4.0 * fast.io_time().as_secs()).abs() < 1e-12);
    }

    #[test]
    fn merge_arrival_counts_wait() {
        let mut c = test_charger(1.0);
        c.charge_work(Work::comparisons(100));
        let before = c.now();
        c.merge_arrival(before + SimDuration::from_secs(2.0));
        assert_eq!(c.wait_time(), SimDuration::from_secs(2.0));
        // Arrivals in the past don't move the clock or add wait.
        c.merge_arrival(SimTime::ZERO);
        assert_eq!(c.wait_time(), SimDuration::from_secs(2.0));
    }

    #[test]
    fn measured_policy_charges_wall_time() {
        let disk = Disk::in_memory(64);
        let mut c = Charger::new(
            CpuModel::free(),
            2.0,
            Jitter::none(),
            disk,
            TimePolicy::Measured,
        );
        c.compute(Work::default(), || {
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        // ~20ms × slowdown 2 = ≥ 40ms of virtual time.
        assert!(c.now().as_secs() >= 0.04, "got {}", c.now());
    }

    #[test]
    #[should_panic(expected = "slowdown must be >= 1")]
    fn speedups_rejected() {
        let _ = test_charger(0.5);
    }

    #[test]
    fn overlapped_charges_max_of_cpu_and_io() {
        // CPU-bound section: lots of comparisons, tiny I/O.
        let mut c = test_charger(1.0);
        c.disk().write_file::<u32>("f", &[1]).unwrap();
        let delta = c
            .charge_overlapped_section(Work::comparisons(1_000_000_000), std::time::Duration::ZERO);
        assert!(delta.blocks_written > 0);
        let cpu = c.cpu_time();
        let io = c.io_time();
        assert!(cpu > io, "meant to be CPU-bound: cpu {cpu} io {io}");
        assert_eq!(c.now().as_secs(), cpu.as_secs());
        assert!((c.overlap_saved().as_secs() - io.as_secs()).abs() < 1e-12);

        // I/O-bound section: no counted work, lots of blocks.
        let mut c = test_charger(1.0);
        c.disk()
            .write_file::<u32>("g", &(0..4096).collect::<Vec<_>>())
            .unwrap();
        c.charge_overlapped_section(Work::default(), std::time::Duration::ZERO);
        assert_eq!(c.now().as_secs(), c.io_time().as_secs());
        assert!((c.overlap_saved().as_secs() - c.cpu_time().as_secs()).abs() < 1e-12);
    }

    #[test]
    fn overlapped_prices_same_components_as_sequential() {
        // Same work, same I/O: the overlapped clock advance must equal
        // max(cpu, io) of the sequential charges, and the breakdowns match.
        let data: Vec<u32> = (0..1024).collect();
        let work = Work::comparisons(500_000).plus(Work::moves(100_000));

        let mut seq = test_charger(2.0);
        seq.disk().write_file("f", &data).unwrap();
        seq.charge_section(work, std::time::Duration::ZERO);
        seq.sync_io();

        let mut over = test_charger(2.0);
        over.disk().write_file("f", &data).unwrap();
        over.charge_overlapped_section(work, std::time::Duration::ZERO);

        assert_eq!(over.cpu_time(), seq.cpu_time());
        assert_eq!(over.io_time(), seq.io_time());
        assert_eq!(
            over.now().as_secs(),
            seq.cpu_time().max(seq.io_time()).as_secs()
        );
        assert!(over.now() < seq.now(), "pipelining must save time here");
        let saved = seq.now().since(over.now());
        assert!((saved.as_secs() - over.overlap_saved().as_secs()).abs() < 1e-12);
    }

    #[test]
    fn overlapped_zero_work_zero_io_is_free() {
        // Degenerate section: no counted work, no block deltas. The clock
        // must not move and nothing may be recorded as saved.
        let mut c = test_charger(3.0);
        let delta = c.charge_overlapped_section(Work::default(), std::time::Duration::ZERO);
        assert_eq!(delta.total_blocks(), 0);
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.cpu_time(), SimDuration::ZERO);
        assert_eq!(c.io_time(), SimDuration::ZERO);
        assert_eq!(c.overlap_saved(), SimDuration::ZERO);
    }

    #[test]
    fn overlapped_io_only_section_charges_like_sync_io() {
        // I/O with zero counted work: the advance is exactly the sequential
        // sync_io charge, and nothing is hidden (cpu component is zero).
        let data: Vec<u32> = (0..2048).collect();
        let mut seq = test_charger(2.0);
        seq.disk().write_file("f", &data).unwrap();
        seq.sync_io();

        let mut over = test_charger(2.0);
        over.disk().write_file("f", &data).unwrap();
        over.charge_overlapped_section(Work::default(), std::time::Duration::ZERO);

        assert_eq!(over.now(), seq.now());
        assert_eq!(over.io_time(), seq.io_time());
        assert_eq!(over.cpu_time(), SimDuration::ZERO);
        assert_eq!(over.overlap_saved(), SimDuration::ZERO);
    }

    #[test]
    fn overlap_saved_never_exceeds_min_component() {
        // Across a spread of cpu:io ratios, the hidden time is exactly
        // min(cpu, io) per section and therefore can never exceed it.
        for (cmps, recs) in [(0u64, 1usize), (1_000, 64), (500_000, 512), (50_000_000, 4)] {
            let mut c = test_charger(1.5);
            if recs > 0 {
                c.disk()
                    .write_file::<u32>("f", &(0..recs as u32).collect::<Vec<_>>())
                    .unwrap();
            }
            c.charge_overlapped_section(Work::comparisons(cmps), std::time::Duration::ZERO);
            let min = c.cpu_time().min(c.io_time());
            assert!(
                c.overlap_saved().as_secs() <= min.as_secs() + 1e-12,
                "cmps {cmps} recs {recs}: saved {} > min {}",
                c.overlap_saved(),
                min
            );
            assert!((c.overlap_saved().as_secs() - min.as_secs()).abs() < 1e-12);
            assert_eq!(
                c.now().as_secs(),
                c.cpu_time().max(c.io_time()).as_secs(),
                "advance must be the max component"
            );
        }
    }

    #[test]
    fn io_is_priced_at_service_time() {
        let data: Vec<u32> = (0..1024).collect();
        let mut c = test_charger(2.0);
        c.disk().write_file("f", &data).unwrap();
        c.sync_io();
        let expected = c.disk().model().service_time(&IoSnapshot {
            blocks_written: 1024 * 4 / 64,
            bytes_written: 1024 * 4,
            files_created: 1,
            ..Default::default()
        });
        assert!((c.io_time().as_secs() - 2.0 * expected.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn io_split_sums_to_io_time() {
        let mut c = test_charger(2.0);
        let data: Vec<u32> = (0..1024).collect();
        c.disk().write_file("f", &data).unwrap();
        c.sync_io();
        // Write-only delta: everything lands on the write side.
        assert_eq!(c.io_read_time(), SimDuration::ZERO);
        assert!((c.io_write_time().as_secs() - c.io_time().as_secs()).abs() < 1e-12);

        let _: Vec<u32> = c.disk().read_file("f").unwrap();
        c.sync_io();
        // Mixed cumulative totals still sum exactly.
        assert!(c.io_read_time() > SimDuration::ZERO);
        let sum = c.io_read_time() + c.io_write_time();
        assert!((sum.as_secs() - c.io_time().as_secs()).abs() < 1e-12);
    }

    #[test]
    fn io_split_read_only_delta_is_all_read() {
        let mut c = test_charger(1.0);
        c.disk()
            .write_file::<u32>("f", &(0..512).collect::<Vec<_>>())
            .unwrap();
        c.sync_io();
        let write_side = c.io_write_time();
        let _: Vec<u32> = c.disk().read_file("f").unwrap();
        c.sync_io();
        assert_eq!(c.io_write_time(), write_side, "reads must not bill writes");
        assert!(c.io_read_time() > SimDuration::ZERO);
    }

    #[test]
    fn dominant_wait_tracks_largest_jump() {
        let mut c = test_charger(1.0);
        assert!(c.take_dominant().is_none());
        c.merge_arrival_from(SimTime::from_secs(1.0), 2, SimTime::from_secs(0.5));
        c.merge_arrival_from(SimTime::from_secs(1.5), 3, SimTime::from_secs(0.2));
        // Second jump (0.5s) is smaller than the first (1.0s).
        let d = c.take_dominant().expect("dominant recorded");
        assert_eq!(d.from, 2);
        assert_eq!(d.arrival, SimTime::from_secs(1.0));
        assert_eq!(d.depart, SimTime::from_secs(0.5));
        assert!((d.jump.as_secs() - 1.0).abs() < 1e-12);
        // take_dominant clears the record.
        assert!(c.take_dominant().is_none());
        // Arrivals in the past record nothing.
        c.merge_arrival_from(SimTime::ZERO, 1, SimTime::ZERO);
        assert!(c.take_dominant().is_none());
        // Wait accounting matches plain merge_arrival.
        assert_eq!(c.wait_time(), SimDuration::from_secs(1.5));
    }

    #[test]
    fn reset_zeroes_io_split_and_dominant() {
        let mut c = test_charger(1.0);
        c.disk().write_file::<u32>("f", &[1, 2, 3]).unwrap();
        c.sync_io();
        c.merge_arrival_from(SimTime::from_secs(9.0), 1, SimTime::ZERO);
        c.reset();
        assert_eq!(c.io_read_time(), SimDuration::ZERO);
        assert_eq!(c.io_write_time(), SimDuration::ZERO);
        assert!(c.take_dominant().is_none());
    }

    #[test]
    fn reset_zeroes_overlap_saved() {
        let mut c = test_charger(1.0);
        c.disk().write_file::<u32>("f", &[1, 2, 3]).unwrap();
        c.charge_overlapped_section(Work::comparisons(10), std::time::Duration::ZERO);
        c.reset();
        assert_eq!(c.overlap_saved(), SimDuration::ZERO);
    }
}
