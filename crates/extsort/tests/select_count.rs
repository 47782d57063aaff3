//! The loser tree's select count and tie order, pinned exactly.
//!
//! The cost models price every merge from `LoserTree::comparisons()`, so
//! the count is part of the tree's contract, not an implementation detail:
//! `k − 1` selects to build the tournament, then one per level of the
//! winner's leaf-to-root path, `⌊log₂(s + k)⌋` for a record emitted from
//! source `s`. The path depends on which source wins each tie, so the same
//! identity also pins the tie order: key first, then `(record, index)`,
//! with an exhausted source losing to everything.
//!
//! A seeded sweep over fan-ins 1…300 checks both against a stable sort of
//! the tagged input, for totally ordered keys (`u32`), keys that collide
//! with the exhausted sentinel (`u64` with live `u64::MAX`), keys that do
//! not order the whole record (`KeyPayload`), and records without a key.
//! Every case is drained three ways: record by record, in whole batches,
//! and with the two calls interleaved. Each source is a `Bounded` view of
//! a longer stream, so the per-source look-ahead must stop exactly at the
//! end of its run.

use extsort::stream::Bounded;
use extsort::{LoserTree, RecordStream, SliceStream};
use pdm::record::KeyPayload;
use pdm::Record;
use sim::rng::{Pcg64, Rng};

/// A record type without a usable sort key: every select falls through to
/// the full comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Keyless(u32);

impl Record for Keyless {
    const SIZE: usize = 4;

    fn write_to(&self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.0.to_le_bytes());
    }

    fn read_from(buf: &[u8]) -> Self {
        Keyless(u32::from_le_bytes(buf.try_into().expect("4-byte record")))
    }
}

#[derive(Debug, Clone, Copy)]
enum Drain {
    PerRecord,
    Batched,
    Interleaved,
}

/// Merges `runs` (each sorted) and checks the output and the select count
/// against the stable `(record, source)` order of the input.
fn check<R: Record>(runs: &[Vec<R>], drain: Drain, rng: &mut Pcg64) {
    let k = runs.len().max(1);
    let mut tagged: Vec<(R, usize)> = runs
        .iter()
        .enumerate()
        .flat_map(|(s, run)| run.iter().map(move |&r| (r, s)))
        .collect();
    tagged.sort();
    let expect: Vec<R> = tagged.iter().map(|&(r, _)| r).collect();
    let depth = |s: usize| u64::from((s + k).ilog2());
    let selects = (k as u64 - 1) + tagged.iter().map(|&(_, s)| depth(s)).sum::<u64>();

    // Each run is followed by a copy of itself that the merge must not touch.
    let mut streams: Vec<SliceStream<R>> = runs
        .iter()
        .map(|run| SliceStream::new(run.repeat(2)))
        .collect();
    let views = streams
        .iter_mut()
        .zip(runs)
        .map(|(s, run)| Bounded::new(s, run.len() as u64))
        .collect();
    let mut tree = LoserTree::new(views).unwrap();
    let mut out = Vec::new();
    match drain {
        Drain::PerRecord => {
            while let Some(r) = tree.next_record().unwrap() {
                out.push(r);
            }
        }
        Drain::Batched => {
            let max = 1 + rng.below_usize(700);
            while tree.next_batch(&mut out, max).unwrap() > 0 {}
        }
        Drain::Interleaved => loop {
            if rng.below(2) == 0 {
                match tree.next_record().unwrap() {
                    Some(r) => out.push(r),
                    None => break,
                }
            } else {
                let max = rng.below_usize(20);
                let got = tree.next_batch(&mut out, max).unwrap();
                assert!(got <= max);
                if got < max {
                    break;
                }
            }
        },
    }
    assert_eq!(out, expect, "fan-in {k}, {drain:?}");
    assert_eq!(tree.comparisons(), selects, "fan-in {k}, {drain:?}");
    assert_eq!(tree.produced(), expect.len() as u64);
    // An exhausted merge stays exhausted and selects nothing more.
    assert_eq!(tree.next_record().unwrap(), None);
    assert_eq!(tree.next_batch(&mut out, 5).unwrap(), 0);
    assert_eq!(tree.comparisons(), selects);
    drop(tree);
    for (s, run) in streams.iter_mut().zip(runs) {
        let mut rest = Vec::new();
        s.next_batch(&mut rest, usize::MAX).unwrap();
        assert_eq!(&rest, run, "the look-ahead read past its run");
    }
}

/// Random sorted runs for fan-ins spanning 1…300 (including the leaf-depth
/// boundaries around powers of two), drawing records with `gen`.
fn sweep<R: Record>(seed: u64, mut gen: impl FnMut(&mut Pcg64) -> R) {
    let mut rng = Pcg64::new(seed);
    let mut fan_ins = vec![1usize, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 300];
    fan_ins.extend((0..24).map(|_| 1 + rng.below_usize(300)));
    for (case, &k) in fan_ins.iter().enumerate() {
        // Small fan-ins get runs longer than the look-ahead, so lanes refill.
        let max_len = 1 + rng.below_usize(match k {
            1..=9 => 3000,
            10..=64 => 200,
            _ => 24,
        });
        let runs: Vec<Vec<R>> = (0..k)
            .map(|_| {
                let mut run: Vec<R> = (0..rng.below_usize(max_len + 1))
                    .map(|_| gen(&mut rng))
                    .collect();
                run.sort();
                run
            })
            .collect();
        let drain = [Drain::PerRecord, Drain::Batched, Drain::Interleaved][case % 3];
        check(&runs, drain, &mut rng);
    }
}

#[test]
fn u32_wide_and_narrow_keys() {
    sweep::<u32>(1, |rng| rng.next_u32());
    // Few distinct values: most selects are key ties.
    sweep::<u32>(2, |rng| rng.below(8) as u32);
}

#[test]
fn u64_live_max_keys_are_not_exhaustion() {
    sweep::<u64>(3, |rng| match rng.below(4) {
        0 | 1 => u64::MAX,
        2 => u64::MAX - 1,
        _ => rng.below(4),
    });
}

#[test]
fn key_payload_ties_break_on_payload() {
    sweep::<KeyPayload>(4, |rng| KeyPayload::new(rng.below(6), rng.below(3)));
    sweep::<KeyPayload>(5, |rng| {
        KeyPayload::new(if rng.below(2) == 0 { u64::MAX } else { 7 }, rng.below(4))
    });
}

#[test]
fn keyless_records_use_the_full_comparison() {
    sweep::<Keyless>(6, |rng| Keyless(rng.below(10) as u32));
}

#[test]
fn no_sources_and_all_empty_sources() {
    let mut rng = Pcg64::new(7);
    for drain in [Drain::PerRecord, Drain::Batched, Drain::Interleaved] {
        check::<u32>(&[], drain, &mut rng);
        check::<u32>(&vec![Vec::new(); 5], drain, &mut rng);
    }
}
