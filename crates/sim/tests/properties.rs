//! Properties of the simulation primitives, each over cases drawn from a
//! fixed-seed [`sim::Pcg64`]: a failure reproduces exactly and names its case.

use std::collections::BTreeSet;

use sim::rng::{Rng, Zipf};
use sim::{Pcg64, SimDuration, SimTime, SplitMix64, Summary};

const CASES: usize = 192;

/// `min_len` to `max_len - 1` values uniform in `[-span/2, span/2)`.
fn f64s(rng: &mut Pcg64, min_len: usize, max_len: usize, span: f64) -> Vec<f64> {
    let len = min_len + rng.below_usize(max_len - min_len);
    (0..len).map(|_| span * (rng.next_f64() - 0.5)).collect()
}

#[test]
fn simtime_merge_is_max() {
    let mut rng = Pcg64::new(0x5133_0001);
    for case in 0..CASES {
        let (a, b) = (rng.next_f64() * 1e9, rng.next_f64() * 1e9);
        let (ta, tb) = (SimTime::from_secs(a), SimTime::from_secs(b));
        let m = ta.merge(tb);
        let what = format!("case {case}: {a} s and {b} s");
        assert!(m >= ta && m >= tb && (m == ta || m == tb), "{what}");
        assert_eq!(m, tb.merge(ta), "{what}");
    }
}

#[test]
fn duration_arithmetic_consistent() {
    let mut rng = Pcg64::new(0x5133_0002);
    for case in 0..CASES {
        let (a, b) = (rng.next_f64() * 1e6, rng.next_f64() * 1e6);
        let (da, db) = (SimDuration::from_secs(a), SimDuration::from_secs(b));
        let sum = da + db;
        let what = format!("case {case}: {a} s and {b} s");
        let exact = (sum.as_secs() - (a + b)).abs() < 1e-9 * (1.0 + a + b);
        assert!(exact && sum >= da && sum >= db, "{what}");
        // Subtraction saturates at zero.
        assert!((da - db).as_secs() >= 0.0, "{what}");
    }
}

#[test]
fn below_is_bounded() {
    let mut rng = Pcg64::new(0x5133_0003);
    for case in 0..CASES {
        let (seed, bound) = (rng.next_u64(), 1 + rng.below(999));
        let mut drawn = Pcg64::new(seed);
        let bounded = (0..200).all(|_| drawn.below(bound) < bound);
        assert!(bounded, "case {case}: seed {seed} bound {bound}");
    }
}

#[test]
fn shuffle_is_permutation() {
    let mut rng = Pcg64::new(0x5133_0004);
    for case in 0..CASES {
        let (seed, n) = (rng.next_u64(), rng.below(200) as u32);
        let mut v: Vec<u32> = (0..n).collect();
        Pcg64::new(seed).shuffle(&mut v);
        v.sort_unstable();
        assert!(v.into_iter().eq(0..n), "case {case}: seed {seed} n {n}");
    }
}

#[test]
fn pcg_streams_reproducible() {
    let mut rng = Pcg64::new(0x5133_0005);
    for case in 0..CASES {
        let (seed, stream) = (rng.next_u64(), rng.next_u64());
        let mut a = Pcg64::with_stream(seed, stream);
        let mut b = Pcg64::with_stream(seed, stream);
        let same = (0..32).all(|_| a.next_u64() == b.next_u64());
        assert!(same, "case {case}: seed {seed} stream {stream}");
    }
}

#[test]
fn splitmix_mix_is_injective_on_samples() {
    let mut rng = Pcg64::new(0x5133_0006);
    for case in 0..CASES {
        // Not a proof of injectivity, but distinct inputs should hash
        // distinctly on any realistic sample. Narrow spans repeat inputs,
        // so duplicates are exercised too.
        let span = 1 << (1 + rng.below(63));
        let xs: Vec<u64> = (0..2 + rng.below(98)).map(|_| rng.below(span)).collect();
        let unique: BTreeSet<u64> = xs.iter().copied().collect();
        let hashes: BTreeSet<u64> = unique.iter().map(|&x| SplitMix64::mix(x)).collect();
        assert_eq!(hashes.len(), unique.len(), "case {case}: {xs:?}");
    }
}

#[test]
fn zipf_in_range() {
    let mut rng = Pcg64::new(0x5133_0007);
    for case in 0..CASES {
        let (seed, n) = (rng.next_u64(), 1 + rng.below_usize(4999));
        let alpha = 0.2 + 2.8 * rng.next_f64();
        let (z, mut drawn) = (Zipf::new(n, alpha), Pcg64::new(seed));
        let in_range = (0..100).all(|_| z.sample(&mut drawn) < n);
        assert!(in_range, "case {case}: seed {seed} n {n} alpha {alpha}");
    }
}

#[test]
fn summary_matches_naive_computation() {
    let mut rng = Pcg64::new(0x5133_0008);
    for case in 0..CASES {
        let xs = f64s(&mut rng, 1, 200, 2e6);
        let s = Summary::of(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let what = format!("case {case}: {xs:?}");
        let close = (s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs());
        assert!(close, "{what}");
        assert_eq!((s.min(), s.max()), (min, max), "{what}");
        assert_eq!(s.count(), xs.len() as u64, "{what}");
    }
}

#[test]
fn summary_merge_associative() {
    let mut rng = Pcg64::new(0x5133_0009);
    for case in 0..CASES {
        let (xs, ys) = (f64s(&mut rng, 0, 60, 2e3), f64s(&mut rng, 0, 60, 2e3));
        let mut left = Summary::of(&xs);
        left.merge(&Summary::of(&ys));
        let whole = Summary::of(&[&xs[..], &ys[..]].concat());
        let what = format!("case {case}: {xs:?} then {ys:?}");
        assert_eq!(left.count(), whole.count(), "{what}");
        assert!((left.mean() - whole.mean()).abs() < 1e-9, "{what}");
        assert!((left.stddev() - whole.stddev()).abs() < 1e-9, "{what}");
    }
}
