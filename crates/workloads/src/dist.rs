//! The benchmark catalogue.

use std::fmt;

/// The eight benchmark inputs (plus two duplicates extras).
///
/// Numbering follows the order the harness reports; benchmark 0 is the one
/// whose absolute timings the paper's tables print.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// 0 — independent uniform 32-bit keys.
    Uniform,
    /// 1 — sum-of-4-uniforms "Gaussian" keys (Helman–JáJá–Bader `[G]`).
    Gaussian,
    /// 2 — every key equal (the pathological duplicates case).
    Zero,
    /// 3 — each node's block cycles through the `p` key ranges in ascending
    /// order (`[B]`: already bucket-sorted, pivots look "free").
    BucketSorted,
    /// 4 — nodes form groups of `g`; each block only contains keys from its
    /// group's ranges (`[g-G]`: adversarial for sampling).
    GGroup,
    /// 5 — node `i` holds exactly one key range chosen by the staggered
    /// permutation (`[S]`: maximally skewed initial placement).
    Staggered,
    /// 6 — globally sorted ascending.
    Sorted,
    /// 7 — globally sorted descending.
    ReverseSorted,
    /// 8 (extra) — Zipf(1.1)-distributed ranks over 4096 distinct keys:
    /// heavy duplicates with a skewed histogram.
    ZipfDuplicates,
    /// 9 (extra) — one hot key for 30% of the records, the rest uniform:
    /// a single equal run far longer than any node's share.
    HotKey,
}

impl Benchmark {
    /// All benchmarks, in id order.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::Uniform,
        Benchmark::Gaussian,
        Benchmark::Zero,
        Benchmark::BucketSorted,
        Benchmark::GGroup,
        Benchmark::Staggered,
        Benchmark::Sorted,
        Benchmark::ReverseSorted,
        Benchmark::ZipfDuplicates,
        Benchmark::HotKey,
    ];

    /// The paper's "eight benchmarks" (without the duplicates extras).
    pub const PAPER_EIGHT: [Benchmark; 8] = [
        Benchmark::Uniform,
        Benchmark::Gaussian,
        Benchmark::Zero,
        Benchmark::BucketSorted,
        Benchmark::GGroup,
        Benchmark::Staggered,
        Benchmark::Sorted,
        Benchmark::ReverseSorted,
    ];

    /// Numeric id (0–9).
    pub fn id(self) -> usize {
        Self::ALL.iter().position(|&b| b == self).expect("in ALL")
    }

    /// Benchmark from its id.
    ///
    /// # Panics
    /// Panics if `id > 9`.
    pub fn from_id(id: usize) -> Benchmark {
        Self::ALL[id]
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Uniform => "uniform",
            Benchmark::Gaussian => "gaussian",
            Benchmark::Zero => "zero",
            Benchmark::BucketSorted => "bucket-sorted",
            Benchmark::GGroup => "g-group",
            Benchmark::Staggered => "staggered",
            Benchmark::Sorted => "sorted",
            Benchmark::ReverseSorted => "reverse-sorted",
            Benchmark::ZipfDuplicates => "zipf-duplicates",
            Benchmark::HotKey => "hot-key",
        }
    }

    /// Whether the benchmark intentionally contains massive duplication.
    pub fn duplicate_heavy(self) -> bool {
        matches!(
            self,
            Benchmark::Zero | Benchmark::ZipfDuplicates | Benchmark::HotKey
        )
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Counts the highest multiplicity of any key (the `d` in the paper's
/// `U + d` duplicates bound). Sorts a copy; intended for test-sized data.
pub fn max_duplicate_count(data: &[u32]) -> u64 {
    if data.is_empty() {
        return 0;
    }
    let mut sorted = data.to_vec();
    sorted.sort_unstable();
    let mut best = 1u64;
    let mut cur = 1u64;
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            cur += 1;
            best = best.max(cur);
        } else {
            cur = 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_id(b.id()), b);
        }
        assert_eq!(Benchmark::Uniform.id(), 0);
        assert_eq!(Benchmark::ZipfDuplicates.id(), 8);
        assert_eq!(Benchmark::HotKey.id(), 9);
    }

    #[test]
    fn paper_eight_excludes_extras() {
        assert_eq!(Benchmark::PAPER_EIGHT.len(), 8);
        assert!(!Benchmark::PAPER_EIGHT.contains(&Benchmark::ZipfDuplicates));
        assert!(!Benchmark::PAPER_EIGHT.contains(&Benchmark::HotKey));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Benchmark::ALL.len());
    }

    #[test]
    fn duplicate_flags() {
        assert!(Benchmark::Zero.duplicate_heavy());
        assert!(Benchmark::ZipfDuplicates.duplicate_heavy());
        assert!(Benchmark::HotKey.duplicate_heavy());
        assert!(!Benchmark::Uniform.duplicate_heavy());
    }

    #[test]
    fn max_duplicates() {
        assert_eq!(max_duplicate_count(&[]), 0);
        assert_eq!(max_duplicate_count(&[1]), 1);
        assert_eq!(max_duplicate_count(&[1, 2, 3]), 1);
        assert_eq!(max_duplicate_count(&[2, 1, 2, 3, 2]), 3);
        assert_eq!(max_duplicate_count(&[5; 10]), 10);
    }
}
