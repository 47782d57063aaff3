//! PDM parameters and theoretical bounds.
//!
//! Vitter's parallel disk model measures sorting by block I/Os:
//!
//! ```text
//! Sort(N) = Θ( (n / D) · log_m n )      n = N/B,  m = M/B
//! ```
//!
//! [`PdmParams`] carries the five model parameters, checks the model's
//! side conditions (`M < N`, `1 ≤ DB ≤ M/2`) and evaluates the bound so the
//! benchmark harness can print *measured I/Os vs. theory* for every sort.

/// The PDM parameter set, in units of records (the model's "items").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdmParams {
    /// Problem size N (records).
    pub n_records: u64,
    /// Internal memory size M (records).
    pub mem_records: u64,
    /// Block transfer size B (records).
    pub block_records: u64,
    /// Number of independent disk drives D.
    pub disks: u64,
    /// Number of CPUs P.
    pub procs: u64,
}

impl PdmParams {
    /// Creates and validates a parameter set.
    ///
    /// # Panics
    /// Panics if any parameter is zero, if `M ≥ N` (the problem would be
    /// in-core), or if `D·B > M/2` (the model's practicality condition).
    pub fn new(
        n_records: u64,
        mem_records: u64,
        block_records: u64,
        disks: u64,
        procs: u64,
    ) -> Self {
        let p = PdmParams {
            n_records,
            mem_records,
            block_records,
            disks,
            procs,
        };
        p.validate();
        p
    }

    /// Checks the PDM side conditions.
    pub fn validate(&self) {
        assert!(
            self.n_records > 0
                && self.mem_records > 0
                && self.block_records > 0
                && self.disks > 0
                && self.procs > 0,
            "PDM parameters must be positive: {self:?}"
        );
        assert!(
            self.mem_records < self.n_records,
            "PDM requires M < N (out-of-core); got M={} N={}",
            self.mem_records,
            self.n_records
        );
        assert!(
            self.disks * self.block_records <= self.mem_records / 2,
            "PDM requires D·B <= M/2; got D={} B={} M={}",
            self.disks,
            self.block_records,
            self.mem_records
        );
    }

    /// `n = N/B`, the problem size in blocks (rounded up).
    pub fn n_blocks(&self) -> u64 {
        self.n_records.div_ceil(self.block_records)
    }

    /// `m = M/B`, the memory size in blocks.
    pub fn m_blocks(&self) -> u64 {
        self.mem_records / self.block_records
    }

    /// `ceil(log_m n)`, the number of distribution/merge levels; at least 1.
    pub fn merge_levels(&self) -> u32 {
        let n = self.n_blocks() as f64;
        let m = self.m_blocks() as f64;
        if m <= 1.0 {
            return 1;
        }
        (n.ln() / m.ln()).ceil().max(1.0) as u32
    }

    /// The `Sort(N)` bound in block I/Os: `2·(n/D)·ceil(log_m n)` — the
    /// factor 2 counts each record read *and* written once per level, which
    /// is the constant distribution/merge sorts achieve.
    pub fn sort_io_bound(&self) -> u64 {
        2 * self.n_blocks().div_ceil(self.disks) * self.merge_levels() as u64
    }

    /// One full scan of the data: `n/D` parallel block I/Os.
    pub fn scan_ios(&self) -> u64 {
        self.n_blocks().div_ceil(self.disks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> PdmParams {
        // N=1Mi records, M=64Ki, B=1Ki, D=1, P=1 → n=1024, m=64.
        PdmParams::new(1 << 20, 1 << 16, 1 << 10, 1, 1)
    }

    #[test]
    fn blocks_arithmetic() {
        let p = p();
        assert_eq!(p.n_blocks(), 1024);
        assert_eq!(p.m_blocks(), 64);
    }

    #[test]
    fn n_blocks_rounds_up() {
        let p = PdmParams::new(1025, 512, 8, 1, 1);
        assert_eq!(p.n_blocks(), 129);
    }

    #[test]
    fn merge_levels_small_ratio() {
        // n=1024, m=64 → log_64(1024) = 1.66… → 2 levels.
        assert_eq!(p().merge_levels(), 2);
        // Barely out-of-core (n = m + 1): run formation + one merge pass.
        let q = PdmParams::new((1 << 16) + 1024, 1 << 16, 1 << 10, 1, 1);
        assert_eq!(q.merge_levels(), 2);
    }

    #[test]
    fn sort_bound_and_scan() {
        let p = p();
        assert_eq!(p.scan_ios(), 1024);
        assert_eq!(p.sort_io_bound(), 2 * 1024 * 2);
        let d4 = PdmParams::new(1 << 20, 1 << 16, 1 << 10, 4, 4);
        assert_eq!(d4.scan_ios(), 256);
    }

    #[test]
    #[should_panic(expected = "M < N")]
    fn in_core_rejected() {
        let _ = PdmParams::new(100, 100, 10, 1, 1);
    }

    #[test]
    #[should_panic(expected = "D·B <= M/2")]
    fn practicality_condition() {
        let _ = PdmParams::new(1 << 20, 64, 64, 2, 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rejected() {
        let _ = PdmParams::new(0, 1, 1, 1, 1);
    }
}
