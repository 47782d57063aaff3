//! Fixed-size record encoding.
//!
//! Everything that flows through the external sorters is a [`Record`]: a
//! `Copy + Ord` value with a fixed little-endian byte encoding, so block files
//! are simply packed arrays and any record can be addressed by index (the
//! pivot-sampling step of the paper seeks to every `stride`-th record of a
//! sorted file).

/// A fixed-size, totally ordered record that can round-trip through bytes.
///
/// Implementations must guarantee `read_from(write_to(x)) == x` and that the
/// byte encoding is exactly [`Record::SIZE`] bytes.
pub trait Record: Copy + Ord + Send + Sync + std::fmt::Debug + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// Whether [`Record::sort_key`] is meaningful: `a.sort_key() <
    /// b.sort_key()` implies `a < b`, and `a < b` implies `a.sort_key() <=
    /// b.sort_key()`. Kernels that sort by key (radix run formation, the
    /// cached-key loser tree) only engage when this is `true`.
    const HAS_SORT_KEY: bool = false;

    /// Whether the key is a *total* order: equal keys imply equal records.
    /// When `false` (e.g. [`KeyPayload`]: payloads tie-break), key-based
    /// kernels must finish equal-key groups with the full `Ord`.
    const KEY_IS_TOTAL: bool = false;

    /// An order-preserving fixed-width key (see [`Record::HAS_SORT_KEY`]).
    /// The default is a constant, which satisfies the contract vacuously.
    fn sort_key(&self) -> u64 {
        0
    }

    /// Serializes into `buf` (exactly `SIZE` bytes).
    ///
    /// # Panics
    /// Panics if `buf.len() != SIZE`.
    fn write_to(&self, buf: &mut [u8]);

    /// Deserializes from `buf` (exactly `SIZE` bytes).
    ///
    /// # Panics
    /// Panics if `buf.len() != SIZE`.
    fn read_from(buf: &[u8]) -> Self;

    /// Length-checked deserialization: `None` when `buf` is not exactly
    /// `SIZE` bytes (e.g. a truncated tail block). The block layer turns
    /// this into a typed [`crate::PdmError`] instead of a panic.
    fn try_read_from(buf: &[u8]) -> Option<Self> {
        if buf.len() == Self::SIZE {
            Some(Self::read_from(buf))
        } else {
            None
        }
    }

    /// Bulk-encodes `records` into `buf` in one pass. The default loops
    /// over [`Record::write_to`]; POD implementations specialize to a
    /// single `copy_from_slice`.
    ///
    /// # Panics
    /// Panics if `buf.len() != records.len() * SIZE`.
    fn write_slice_to(records: &[Self], buf: &mut [u8]) {
        assert_eq!(
            buf.len(),
            records.len() * Self::SIZE,
            "buffer length does not match record count"
        );
        for (r, chunk) in records.iter().zip(buf.chunks_exact_mut(Self::SIZE)) {
            r.write_to(chunk);
        }
    }

    /// Bulk-decodes `buf` and appends to `out` in one pass. The default
    /// loops over [`Record::read_from`]; POD implementations specialize to
    /// a single `copy_from_slice`.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of `SIZE`.
    fn read_slice_from(buf: &[u8], out: &mut Vec<Self>) {
        assert_eq!(
            buf.len() % Self::SIZE,
            0,
            "byte length {} not a multiple of record size {}",
            buf.len(),
            Self::SIZE
        );
        out.extend(buf.chunks_exact(Self::SIZE).map(Self::read_from));
    }

    /// Borrows encoded bytes as a record slice **without copying**: `Some`
    /// only when the in-memory layout of `[Self]` is exactly the file
    /// encoding (little-endian POD), `bytes` is properly aligned for
    /// `Self`, and the length is a whole number of records. The default is
    /// `None` (no zero-copy view; callers fall back to a decoding copy).
    fn view_slice(bytes: &[u8]) -> Option<&[Self]> {
        let _ = bytes;
        None
    }

    /// Borrows a record slice as its encoded bytes **without copying**:
    /// `Some` under the same layout conditions as [`Record::view_slice`]
    /// (a `&[Self]` is always aligned, so only the layout matters).
    fn view_bytes(records: &[Self]) -> Option<&[u8]> {
        let _ = records;
        None
    }
}

/// Shared implementation of [`Record::view_slice`] for little-endian POD
/// types: length and alignment checked, then a plain pointer cast.
#[cfg(target_endian = "little")]
fn pod_view_slice<R: Record>(bytes: &[u8]) -> Option<&[R]> {
    if !bytes.len().is_multiple_of(R::SIZE)
        || bytes.as_ptr().align_offset(std::mem::align_of::<R>()) != 0
    {
        return None;
    }
    // SAFETY: length is a whole number of records, the pointer is aligned
    // for `R`, and for these POD types every byte pattern is a valid value
    // whose in-memory layout equals the file encoding.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<R>(), bytes.len() / R::SIZE) })
}

/// Shared implementation of [`Record::view_bytes`] for little-endian POD
/// types (a record slice is always aligned; only the layout matters).
#[cfg(target_endian = "little")]
fn pod_view_bytes<R: Record>(records: &[R]) -> &[u8] {
    // SAFETY: viewing initialized POD values as bytes is always valid, and
    // the little-endian in-memory layout is exactly the file encoding.
    unsafe { std::slice::from_raw_parts(records.as_ptr().cast::<u8>(), records.len() * R::SIZE) }
}

macro_rules! int_record {
    ($t:ty, |$s:ident| $key:expr) => {
        impl Record for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const HAS_SORT_KEY: bool = true;
            const KEY_IS_TOTAL: bool = true;

            fn sort_key(&self) -> u64 {
                let $s = *self;
                $key
            }

            fn write_to(&self, buf: &mut [u8]) {
                buf.copy_from_slice(&self.to_le_bytes());
            }

            fn read_from(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf.try_into().expect("record size mismatch"))
            }

            fn write_slice_to(records: &[Self], buf: &mut [u8]) {
                assert_eq!(
                    buf.len(),
                    records.len() * Self::SIZE,
                    "buffer length does not match record count"
                );
                #[cfg(target_endian = "little")]
                {
                    // SAFETY: a plain integer slice is valid to view as
                    // bytes, and its little-endian in-memory layout is
                    // exactly the file encoding.
                    let bytes = unsafe {
                        std::slice::from_raw_parts(records.as_ptr().cast::<u8>(), buf.len())
                    };
                    buf.copy_from_slice(bytes);
                }
                #[cfg(not(target_endian = "little"))]
                for (r, chunk) in records.iter().zip(buf.chunks_exact_mut(Self::SIZE)) {
                    r.write_to(chunk);
                }
            }

            fn read_slice_from(buf: &[u8], out: &mut Vec<Self>) {
                assert_eq!(
                    buf.len() % Self::SIZE,
                    0,
                    "byte length {} not a multiple of record size {}",
                    buf.len(),
                    Self::SIZE
                );
                let n = buf.len() / Self::SIZE;
                #[cfg(target_endian = "little")]
                {
                    let start = out.len();
                    out.resize(start + n, 0 as $t);
                    // SAFETY: the Vec's buffer is properly aligned for the
                    // integer type; viewing the freshly resized tail as
                    // bytes is valid, and any byte pattern is a valid
                    // integer. File encoding == little-endian layout.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(
                            out.as_mut_ptr().add(start).cast::<u8>(),
                            buf.len(),
                        )
                    };
                    dst.copy_from_slice(buf);
                }
                #[cfg(not(target_endian = "little"))]
                out.extend(buf.chunks_exact(Self::SIZE).map(Self::read_from));
            }

            #[cfg(target_endian = "little")]
            fn view_slice(bytes: &[u8]) -> Option<&[Self]> {
                pod_view_slice(bytes)
            }

            #[cfg(target_endian = "little")]
            fn view_bytes(records: &[Self]) -> Option<&[u8]> {
                Some(pod_view_bytes(records))
            }
        }
    };
}

// Unsigned keys zero-extend; signed keys flip the sign bit so that the
// unsigned key order matches the signed record order.
int_record!(u32, |s| s as u64);
int_record!(u64, |s| s);
int_record!(i32, |s| (s as u32 ^ 0x8000_0000) as u64);
int_record!(i64, |s| s as u64 ^ 0x8000_0000_0000_0000);
int_record!(u16, |s| s as u64);

/// A 16-byte record with a 64-bit sort key and a 64-bit opaque payload, for
/// workloads where records are wider than their keys (e.g. database rows).
/// Ordering is by `key` first, then `payload` (total order keeps sorts
/// deterministic under duplicate keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C)] // field order is the file layout (enables the bulk byte-view codec)
pub struct KeyPayload {
    /// The sort key.
    pub key: u64,
    /// Carried payload (not interpreted by the sorters).
    pub payload: u64,
}

impl KeyPayload {
    /// Convenience constructor.
    pub fn new(key: u64, payload: u64) -> Self {
        KeyPayload { key, payload }
    }
}

impl Record for KeyPayload {
    const SIZE: usize = 16;
    const HAS_SORT_KEY: bool = true;
    // Equal keys do NOT imply equal records — payloads tie-break — so
    // key-based kernels must finish equal-key groups with the full `Ord`.
    const KEY_IS_TOTAL: bool = false;

    fn sort_key(&self) -> u64 {
        self.key
    }

    fn write_to(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), Self::SIZE, "record size mismatch");
        buf[..8].copy_from_slice(&self.key.to_le_bytes());
        buf[8..].copy_from_slice(&self.payload.to_le_bytes());
    }

    fn read_from(buf: &[u8]) -> Self {
        assert_eq!(buf.len(), Self::SIZE, "record size mismatch");
        KeyPayload {
            key: u64::from_le_bytes(buf[..8].try_into().unwrap()),
            payload: u64::from_le_bytes(buf[8..].try_into().unwrap()),
        }
    }

    fn write_slice_to(records: &[Self], buf: &mut [u8]) {
        assert_eq!(
            buf.len(),
            records.len() * Self::SIZE,
            "buffer length does not match record count"
        );
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `KeyPayload` is `repr(C)` with two `u64` fields and
            // no padding, so its little-endian in-memory layout is exactly
            // the file encoding and a byte view of the slice is valid.
            let bytes =
                unsafe { std::slice::from_raw_parts(records.as_ptr().cast::<u8>(), buf.len()) };
            buf.copy_from_slice(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        for (r, chunk) in records.iter().zip(buf.chunks_exact_mut(Self::SIZE)) {
            r.write_to(chunk);
        }
    }

    fn read_slice_from(buf: &[u8], out: &mut Vec<Self>) {
        assert_eq!(
            buf.len() % Self::SIZE,
            0,
            "byte length {} not a multiple of record size {}",
            buf.len(),
            Self::SIZE
        );
        let n = buf.len() / Self::SIZE;
        #[cfg(target_endian = "little")]
        {
            let start = out.len();
            out.resize(start + n, KeyPayload::new(0, 0));
            // SAFETY: the Vec's buffer is aligned for `KeyPayload`
            // (`repr(C)`, padding-free, any byte pattern valid); the byte
            // view of the freshly resized tail matches the file encoding.
            let dst = unsafe {
                std::slice::from_raw_parts_mut(out.as_mut_ptr().add(start).cast::<u8>(), buf.len())
            };
            dst.copy_from_slice(buf);
        }
        #[cfg(not(target_endian = "little"))]
        out.extend(buf.chunks_exact(Self::SIZE).map(Self::read_from));
    }

    #[cfg(target_endian = "little")]
    fn view_slice(bytes: &[u8]) -> Option<&[Self]> {
        pod_view_slice(bytes)
    }

    #[cfg(target_endian = "little")]
    fn view_bytes(records: &[Self]) -> Option<&[u8]> {
        Some(pod_view_bytes(records))
    }
}

/// Encodes a slice of records into a packed byte vector (one bulk pass).
pub fn encode_all<R: Record>(records: &[R]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_all_into(records, &mut out);
    out
}

/// Encodes into a caller-owned buffer: clears `out`, then appends the
/// packed encoding, reusing whatever capacity `out` already holds. Message
/// loops that encode thousands of small chunks (`msg_records = 8` is the
/// paper's pathological packet size) call this with a scratch buffer so
/// each encode reuses one buffer instead of hitting the allocator per
/// message.
pub fn encode_all_into<R: Record>(records: &[R], out: &mut Vec<u8>) {
    out.clear();
    out.resize(records.len() * R::SIZE, 0);
    R::write_slice_to(records, out);
}

/// Decodes a packed byte slice into records (one bulk pass).
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of `R::SIZE`.
pub fn decode_all<R: Record>(bytes: &[u8]) -> Vec<R> {
    let mut out = Vec::with_capacity(bytes.len() / R::SIZE);
    R::read_slice_from(bytes, &mut out);
    out
}

/// Decodes into a caller-owned buffer: clears `out`, then appends the
/// decoded records, reusing capacity. The receive-side counterpart of
/// [`encode_all_into`] for per-message scratch reuse.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of `R::SIZE`.
pub fn decode_all_into<R: Record>(bytes: &[u8], out: &mut Vec<R>) {
    out.clear();
    R::read_slice_from(bytes, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<R: Record>(x: R) {
        let mut buf = vec![0u8; R::SIZE];
        x.write_to(&mut buf);
        assert_eq!(R::read_from(&buf), x);
    }

    #[test]
    fn u32_roundtrip() {
        for x in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            roundtrip(x);
        }
    }

    #[test]
    fn i32_roundtrip_preserves_sign() {
        for x in [i32::MIN, -1, 0, 1, i32::MAX] {
            roundtrip(x);
        }
    }

    #[test]
    fn u64_i64_u16_roundtrip() {
        roundtrip(u64::MAX - 3);
        roundtrip(i64::MIN + 5);
        roundtrip(0xBEEFu16);
    }

    #[test]
    fn keypayload_roundtrip_and_order() {
        roundtrip(KeyPayload::new(42, 0xFFFF_FFFF_FFFF_FFFF));
        let a = KeyPayload::new(1, 100);
        let b = KeyPayload::new(2, 0);
        let c = KeyPayload::new(2, 1);
        assert!(a < b && b < c);
        assert_eq!(KeyPayload::SIZE, 16);
    }

    #[test]
    fn encode_decode_all() {
        let v: Vec<u32> = (0..100).map(|i| i * 7).collect();
        let bytes = encode_all(&v);
        assert_eq!(bytes.len(), 400);
        assert_eq!(decode_all::<u32>(&bytes), v);
    }

    #[test]
    fn encode_decode_into_reuse_capacity() {
        let v: Vec<u32> = (0..50).collect();
        let mut bytes = Vec::with_capacity(1024);
        encode_all_into(&v, &mut bytes);
        let cap = bytes.capacity();
        assert_eq!(bytes, encode_all(&v));
        // A second (smaller) encode reuses the same allocation.
        encode_all_into(&v[..10], &mut bytes);
        assert_eq!(bytes.capacity(), cap);
        assert_eq!(bytes, encode_all(&v[..10]));
        // Decode side: scratch is cleared, not appended to.
        let mut out: Vec<u32> = vec![999; 64];
        let out_cap = out.capacity();
        decode_all_into(&bytes, &mut out);
        assert_eq!(out, &v[..10]);
        assert_eq!(out.capacity(), out_cap);
    }

    #[test]
    fn encode_empty() {
        let v: Vec<u64> = vec![];
        assert!(encode_all(&v).is_empty());
        assert!(decode_all::<u64>(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn decode_misaligned_panics() {
        let _ = decode_all::<u32>(&[1, 2, 3]);
    }

    #[test]
    fn little_endian_layout() {
        let mut buf = [0u8; 4];
        0x0102_0304u32.write_to(&mut buf);
        assert_eq!(buf, [4, 3, 2, 1]);
    }

    fn key_order_matches<R: Record>(mut xs: Vec<R>) {
        assert!(R::HAS_SORT_KEY);
        xs.sort_unstable();
        for w in xs.windows(2) {
            assert!(
                w[0].sort_key() <= w[1].sort_key(),
                "{:?} vs {:?}",
                w[0],
                w[1]
            );
            if w[0].sort_key() < w[1].sort_key() {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn sort_keys_preserve_order() {
        key_order_matches(vec![0u32, 1, 7, u32::MAX, 0x8000_0000]);
        key_order_matches(vec![0u64, u64::MAX, 42, 1 << 63]);
        key_order_matches(vec![i32::MIN, -1, 0, 1, i32::MAX]);
        key_order_matches(vec![i64::MIN, -5, 0, 3, i64::MAX]);
        key_order_matches(vec![0u16, 9, u16::MAX]);
        key_order_matches(vec![
            KeyPayload::new(0, 9),
            KeyPayload::new(1, 0),
            KeyPayload::new(1, 1),
            KeyPayload::new(u64::MAX, 0),
        ]);
    }

    #[test]
    fn keypayload_key_not_total() {
        const { assert!(KeyPayload::HAS_SORT_KEY) };
        const { assert!(!KeyPayload::KEY_IS_TOTAL) };
        // The plain integer records all set KEY_IS_TOTAL (checked at compile
        // time where the constants are defined via `int_record!`).
    }

    #[test]
    fn try_read_from_checks_length() {
        assert_eq!(u32::try_read_from(&[1, 0, 0, 0]), Some(1u32));
        assert_eq!(u32::try_read_from(&[1, 0, 0]), None);
        assert_eq!(u32::try_read_from(&[]), None);
        assert_eq!(KeyPayload::try_read_from(&[0u8; 15]), None);
    }

    /// The bulk codec must produce exactly the bytes of the per-record loop
    /// (the POD byte-view specialization is only an optimization).
    fn bulk_matches_loop<R: Record>(xs: &[R]) {
        let mut bulk = vec![0u8; xs.len() * R::SIZE];
        R::write_slice_to(xs, &mut bulk);
        let mut looped = vec![0u8; xs.len() * R::SIZE];
        for (r, chunk) in xs.iter().zip(looped.chunks_exact_mut(R::SIZE)) {
            r.write_to(chunk);
        }
        assert_eq!(bulk, looped);
        let mut out = vec![xs[0]]; // non-empty: append semantics
        R::read_slice_from(&bulk, &mut out);
        assert_eq!(&out[1..], xs);
    }

    #[test]
    fn bulk_codec_matches_per_record_loop() {
        bulk_matches_loop(&[0x0102_0304u32, 7, u32::MAX, 0]);
        bulk_matches_loop(&[u64::MAX, 1, 1 << 40]);
        bulk_matches_loop(&[i32::MIN, -2, 5]);
        bulk_matches_loop(&[i64::MIN, 0, i64::MAX]);
        bulk_matches_loop(&[1u16, 0xBEEF]);
        bulk_matches_loop(&[KeyPayload::new(3, 4), KeyPayload::new(u64::MAX, 0)]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bulk_read_misaligned_panics() {
        let mut out = Vec::new();
        u32::read_slice_from(&[1, 2, 3], &mut out);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn bulk_write_wrong_size_panics() {
        let mut buf = [0u8; 7];
        u32::write_slice_to(&[1, 2], &mut buf);
    }
}
