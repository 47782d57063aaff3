//! Output verification helpers.
//!
//! A sort is correct iff the output is (a) non-decreasing and (b) a
//! permutation of the input. Permutation checking without materializing both
//! sides uses an order-independent multiset [`Fingerprint`]: count, a
//! wrapping sum of record hashes, and an XOR of record hashes. Collisions
//! would require adversarial inputs; for test data this is effectively exact.

use pdm::{BlockReader, Disk, PdmResult, Record};
use sim::SplitMix64;

/// Order-independent multiset fingerprint of a record collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// Number of records.
    pub count: u64,
    /// Wrapping sum of per-record hashes.
    pub sum: u64,
    /// XOR of per-record hashes.
    pub xor: u64,
}

impl Fingerprint {
    /// Folds one record into the fingerprint.
    pub fn add<R: Record>(&mut self, r: &R) {
        let mut stack = [0u8; 64];
        let mut heap;
        let buf: &mut [u8] = if R::SIZE <= stack.len() {
            &mut stack[..R::SIZE]
        } else {
            heap = vec![0u8; R::SIZE];
            &mut heap
        };
        r.write_to(buf);
        // Hash the record bytes 8 bytes at a time through SplitMix64.
        let mut h = 0xABCD_EF01_2345_6789u64;
        for chunk in buf.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = SplitMix64::mix(h ^ u64::from_le_bytes(word));
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    /// Merges two fingerprints (multiset union).
    #[must_use]
    pub fn combine(&self, other: &Fingerprint) -> Fingerprint {
        Fingerprint {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            xor: self.xor ^ other.xor,
        }
    }
}

/// Fingerprint of an in-memory slice.
pub fn fingerprint_slice<R: Record>(data: &[R]) -> Fingerprint {
    let mut f = Fingerprint::default();
    for r in data {
        f.add(r);
    }
    f
}

/// Streams a file as maximal borrowed record slices: whole decoded blocks
/// when the record layout can be viewed in place, single records otherwise.
/// `visit` returns `false` to stop early. Metering is identical to a
/// plain `next_record` scan either way.
pub(crate) fn scan_blocks<R: Record>(
    reader: &mut BlockReader<R>,
    mut visit: impl FnMut(&[R]) -> bool,
) -> PdmResult<()> {
    loop {
        let viewed = match reader.next_block_view()? {
            None => return Ok(()), // EOF
            Some(view) => {
                let n = view.len();
                if n > 0 && !visit(view) {
                    return Ok(());
                }
                n
            }
        };
        if viewed > 0 {
            reader.consume(viewed);
        } else {
            // The block cannot be viewed in place (no POD layout or a
            // misaligned buffer): fall back to one decoded record.
            match reader.next_record()? {
                Some(r) => {
                    if !visit(std::slice::from_ref(&r)) {
                        return Ok(());
                    }
                }
                None => return Ok(()),
            }
        }
    }
}

/// Fingerprint of a disk file (streams; meters its reads).
pub fn fingerprint_file<R: Record>(disk: &Disk, name: &str) -> PdmResult<Fingerprint> {
    let mut reader = disk.open_reader::<R>(name)?;
    let mut f = Fingerprint::default();
    scan_blocks(&mut reader, |view| {
        for r in view {
            f.add(r);
        }
        true
    })?;
    Ok(f)
}

/// Checks that a disk file is non-decreasing.
pub fn is_sorted_file<R: Record>(disk: &Disk, name: &str) -> PdmResult<bool> {
    let mut reader = disk.open_reader::<R>(name)?;
    let mut prev: Option<R> = None;
    let mut sorted = true;
    scan_blocks(&mut reader, |view| {
        if let (Some(p), Some(first)) = (&prev, view.first()) {
            if p > first {
                sorted = false;
                return false;
            }
        }
        if view.windows(2).any(|w| w[0] > w[1]) {
            sorted = false;
            return false;
        }
        prev = view.last().copied();
        true
    })?;
    Ok(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::Disk;

    #[test]
    fn fingerprint_is_order_independent() {
        let a = fingerprint_slice(&[1u32, 2, 3, 4]);
        let b = fingerprint_slice(&[4u32, 2, 1, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_detects_missing_record() {
        let a = fingerprint_slice(&[1u32, 2, 3]);
        let b = fingerprint_slice(&[1u32, 2]);
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_detects_duplicate_count_change() {
        let a = fingerprint_slice(&[5u32, 5, 7]);
        let b = fingerprint_slice(&[5u32, 7, 7]);
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_distinguishes_xor_collisions() {
        // {x, x} has XOR 0 like {}; sum and count catch it.
        let a = fingerprint_slice(&[9u32, 9]);
        let b = fingerprint_slice::<u32>(&[]);
        assert_ne!(a, b);
    }

    #[test]
    fn combine_matches_concatenation() {
        let whole = fingerprint_slice(&[1u32, 2, 3, 4, 5]);
        let left = fingerprint_slice(&[1u32, 2]);
        let right = fingerprint_slice(&[3u32, 4, 5]);
        assert_eq!(left.combine(&right), whole);
    }

    #[test]
    fn file_fingerprint_matches_slice() {
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = (0..100).map(|i| i * 13 % 50).collect();
        disk.write_file("f", &data).unwrap();
        assert_eq!(
            fingerprint_file::<u32>(&disk, "f").unwrap(),
            fingerprint_slice(&data)
        );
    }

    #[test]
    fn sortedness_checks() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("sorted", &[1, 2, 2, 3]).unwrap();
        disk.write_file::<u32>("unsorted", &[1, 3, 2]).unwrap();
        disk.write_file::<u32>("empty", &[]).unwrap();
        disk.write_file::<u32>("single", &[9]).unwrap();
        assert!(is_sorted_file::<u32>(&disk, "sorted").unwrap());
        assert!(!is_sorted_file::<u32>(&disk, "unsorted").unwrap());
        assert!(is_sorted_file::<u32>(&disk, "empty").unwrap());
        assert!(is_sorted_file::<u32>(&disk, "single").unwrap());
    }
}
