//! Hand-rolled length-prefixed wire codec for the socket transport.
//!
//! The workspace vendors its dependencies, so there is no serde-derived
//! binary format to lean on; instead every message type that crosses a
//! process boundary implements [`Wire`] by hand. The format is deliberately
//! boring — little-endian fixed-width scalars, `u64` length prefixes for
//! sequences, `f64` shipped as raw IEEE-754 bits so a value decodes to the
//! *bit-identical* float that was encoded (the 1e-10 transport-equivalence
//! gate depends on this; in practice round-tripping is exact).
//!
//! Decoding is total: every error path returns a [`WireError`] instead of
//! panicking, and — the property the truncation tests pin down — **every
//! strict prefix of a valid encoding fails to decode**. A length prefix is
//! validated against the bytes actually remaining before any allocation, so
//! a corrupt or truncated frame cannot ask for terabytes.

use std::fmt;

/// Maximum element count a decoded sequence may claim. Anything larger than
/// the remaining byte count is rejected anyway; this is a second, absolute
/// guard so `len * size_hint` arithmetic cannot overflow.
const MAX_SEQ_LEN: u64 = 1 << 40;

/// Decode-side failure: the frame ended early or a field held an
/// unrepresentable value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The reader ran out of bytes mid-field.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A field decoded to a value the type cannot represent
    /// (e.g. a bool byte that is neither 0 nor 1, invalid UTF-8).
    Malformed(&'static str),
    /// Decoding finished with unconsumed bytes left in the frame.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(f, "truncated frame: field needs {needed} bytes, {remaining} remain")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::TrailingBytes(n) => write!(f, "frame has {n} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over a received frame.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` bytes or fail with the exact shortfall.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Validate an element count against the bytes actually remaining:
    /// each element occupies at least `min_elem_bytes` (1 for zero-sized
    /// element encodings would admit absurd counts, so `()` is banned from
    /// sequences instead — see `Wire for ()`).
    fn check_seq(&self, len: u64, min_elem_bytes: usize) -> Result<usize, WireError> {
        if len > MAX_SEQ_LEN {
            return Err(WireError::Malformed("sequence length exceeds absolute cap"));
        }
        let need = (len as usize).saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(WireError::Truncated {
                needed: need,
                remaining: self.remaining(),
            });
        }
        Ok(len as usize)
    }
}

/// A type that can cross the socket transport. Implementations must
/// round-trip exactly: `decode(encode(x)) == x` bit for bit.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value, consuming exactly the bytes `encode` produced.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Minimum encoded size in bytes — used to validate sequence length
    /// prefixes before allocating. Must be ≥ 1 and a true lower bound.
    fn min_wire_size() -> usize {
        1
    }

    /// Encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode from a complete frame, rejecting trailing bytes.
    fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let value = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(value)
    }
}

macro_rules! wire_scalar {
    ($ty:ty, $bytes:expr) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let raw = r.take($bytes)?;
                Ok(<$ty>::from_le_bytes(raw.try_into().expect("sized take")))
            }
            fn min_wire_size() -> usize {
                $bytes
            }
        }
    };
}

wire_scalar!(u8, 1);
wire_scalar!(u16, 2);
wire_scalar!(u32, 4);
wire_scalar!(u64, 8);
wire_scalar!(i32, 4);
wire_scalar!(i64, 8);

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        // Raw bits: NaN payloads, signed zeros and subnormals all survive.
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
    fn min_wire_size() -> usize {
        8
    }
}

impl Wire for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
    fn min_wire_size() -> usize {
        4
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool byte is neither 0 nor 1")),
        }
    }
}

/// `usize` travels as `u64` so 32- and 64-bit peers agree on the format.
impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError::Malformed("usize does not fit the host"))
    }
    fn min_wire_size() -> usize {
        8
    }
}

/// `()` occupies one byte on the wire. A zero-byte unit would make
/// `Vec<()>`'s length prefix unverifiable against remaining bytes, which is
/// exactly the hole length-guarded decoding is meant to close.
impl Wire for () {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(()),
            _ => Err(WireError::Malformed("unit byte is not 0")),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)?;
        let len = r.check_seq(len, 1)?;
        let raw = r.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }
    fn min_wire_size() -> usize {
        8
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Malformed("option tag is neither 0 nor 1")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)?;
        let len = r.check_seq(len, T::min_wire_size())?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
    fn min_wire_size() -> usize {
        8
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
    fn min_wire_size() -> usize {
        N * T::min_wire_size()
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
            fn min_wire_size() -> usize {
                0 $(+ $name::min_wire_size())+
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);

/// A measurement record as its fields in declaration order; the energies
/// travel as a sequence of `(domain.to_string(), joules)` pairs in the
/// record's own (`Domain`) order — [`pmt::Domain`] round-trips exactly through
/// its `Display`/`FromStr` pair.
impl Wire for pmt::MeasurementRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.to_string().encode(out);
        self.rank.encode(out);
        self.iteration.encode(out);
        self.start_s.encode(out);
        self.end_s.encode(out);
        self.energy_j.len().encode(out);
        for (domain, joules) in &self.energy_j {
            (domain.to_string(), *joules).encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut record = Self {
            label: String::decode(r)?.into(),
            rank: Wire::decode(r)?,
            iteration: Wire::decode(r)?,
            start_s: Wire::decode(r)?,
            end_s: Wire::decode(r)?,
            energy_j: pmt::DomainEnergies::new(),
        };
        for (name, joules) in Vec::<(String, f64)>::decode(r)? {
            let domain = name.parse().map_err(|_| WireError::Malformed("bad measurement domain"))?;
            record.energy_j.insert(domain, joules);
        }
        Ok(record)
    }
    fn min_wire_size() -> usize {
        // label length + rank + option tag + two f64 + energy count
        8 + 4 + 1 + 8 + 8 + 8
    }
}

/// A rank's report: rank, hostname, then its records as a sequence.
impl Wire for pmt::RankReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rank.encode(out);
        self.hostname.encode(out);
        self.records.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            rank: Wire::decode(r)?,
            hostname: Wire::decode(r)?,
            records: Wire::decode(r)?,
        })
    }
    fn min_wire_size() -> usize {
        4 + 8 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — the vendored-shim stand-in for a property
    /// test generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn f64(&mut self) -> f64 {
            // Arbitrary bit patterns, including NaNs/infinities/subnormals.
            f64::from_bits(self.next())
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let buf = value.to_wire();
        let back = T::from_wire(&buf).expect("round trip decodes");
        assert_eq!(back, value);
        assert_truncation_fails::<T>(&buf);
    }

    /// The codec's core safety property: every strict prefix of a valid
    /// encoding must fail to decode (as a complete frame).
    fn assert_truncation_fails<T: Wire + std::fmt::Debug>(buf: &[u8]) {
        for cut in 0..buf.len() {
            assert!(
                T::from_wire(&buf[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                buf.len()
            );
        }
    }

    #[test]
    fn scalars_round_trip_and_reject_truncation() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i32);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE] {
            let buf = v.to_wire();
            let back = f64::from_wire(&buf).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // NaN payload survives.
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        assert_eq!(f64::from_wire(&nan.to_wire()).unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn random_f64_bit_patterns_round_trip() {
        let mut rng = Rng(0x1234_5678_9ABC_DEF0);
        for _ in 0..2000 {
            let v = rng.f64();
            let back = f64::from_wire(&v.to_wire()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn compound_types_round_trip() {
        round_trip(Some(17u64));
        round_trip(Option::<u64>::None);
        round_trip(String::from("höchstens ützend"));
        round_trip(String::new());
        round_trip(vec![1.0f64, -2.5, 3.25]);
        round_trip(Vec::<f64>::new());
        round_trip(vec![vec![1u32, 2], vec![], vec![3]]);
        round_trip((3usize, 4usize));
        round_trip((String::from("a"), 1u32, 2.5f64));
        round_trip([1.0f64, 2.0, 3.0]);
        round_trip(vec![(String::from("gpu:0"), 12.5f64)]);
    }

    #[test]
    fn random_compound_values_round_trip_with_truncation_sweep() {
        let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D);
        for _ in 0..200 {
            let len = (rng.next() % 17) as usize;
            let vec: Vec<f64> = (0..len).map(|_| rng.f64()).collect();
            let buf = vec.to_wire();
            let back = Vec::<f64>::from_wire(&buf).unwrap();
            assert_eq!(back.len(), vec.len());
            assert!(back.iter().zip(&vec).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_truncation_fails::<Vec<f64>>(&buf);
        }
    }

    /// `buf` with one byte replaced, inserted or deleted.
    fn mutate(rng: &mut Rng, buf: &[u8]) -> Vec<u8> {
        let mut out = buf.to_vec();
        let byte = rng.next() as u8;
        match rng.next() % 3 {
            0 => {
                let at = rng.below(out.len());
                out[at] = byte;
            }
            1 => {
                let at = rng.below(out.len() + 1);
                out.insert(at, byte);
            }
            _ => {
                let at = rng.below(out.len());
                out.remove(at);
            }
        }
        out
    }

    /// Decoding is total on corrupt frames too: every mutation of `value`'s
    /// encoding decodes to a value or a [`WireError`], never a panic.
    fn assert_mutations_decode<T: Wire>(rng: &mut Rng, value: &T) {
        let buf = value.to_wire();
        assert!(T::from_wire(&buf).is_ok());
        for _ in 0..50 {
            let mutated = mutate(rng, &buf);
            let decoded = std::panic::catch_unwind(|| T::from_wire(&mutated).is_ok());
            assert!(
                decoded.is_ok(),
                "{} panicked on {mutated:?}",
                std::any::type_name::<T>()
            );
        }
    }

    fn random_string(rng: &mut Rng) -> String {
        let alphabet = ['g', 'p', 'u', ':', '0', '7', 'ö', 'ü', '→', ' '];
        (0..rng.below(9)).map(|_| alphabet[rng.below(alphabet.len())]).collect()
    }

    fn random_report(rng: &mut Rng) -> pmt::RankReport {
        let mut report = pmt::RankReport::new(rng.next() as u32, random_string(rng));
        for _ in 0..rng.below(4) {
            let mut energy_j = pmt::DomainEnergies::new();
            for _ in 0..rng.below(4) {
                let domain = [
                    pmt::Domain::node(),
                    pmt::Domain::cpu(0),
                    pmt::Domain::gpu(1),
                    pmt::Domain::memory(),
                ];
                energy_j.insert(domain[rng.below(domain.len())], rng.f64());
            }
            report.records.push(pmt::MeasurementRecord {
                label: random_string(rng).into(),
                rank: report.rank,
                iteration: (rng.below(2) == 0).then(|| rng.next()),
                start_s: rng.f64(),
                end_s: rng.f64(),
                energy_j,
            });
        }
        report
    }

    #[test]
    fn mutated_frames_decode_to_a_value_or_a_wire_error() {
        let mut rng = Rng(0x5EED_F00D_0BAD_CAFE);
        for _ in 0..40 {
            let particles: Vec<(u32, [f64; 20], u8)> = (0..rng.below(4))
                .map(|_| (rng.next() as u32, std::array::from_fn(|_| rng.f64()), rng.next() as u8))
                .collect();
            assert_mutations_decode(&mut rng, &particles);
            let rows: Vec<Vec<f64>> = (0..rng.below(4))
                .map(|_| (0..rng.below(5)).map(|_| rng.f64()).collect())
                .collect();
            assert_mutations_decode(&mut rng, &rows);
            let names: Option<Vec<String>> =
                (rng.below(4) != 0).then(|| (0..rng.below(4)).map(|_| random_string(&mut rng)).collect());
            assert_mutations_decode(&mut rng, &names);
            let report = random_report(&mut rng);
            assert_mutations_decode(&mut rng, &report);
        }
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_before_allocation() {
        // A frame claiming 2^60 elements but holding none.
        let mut buf = Vec::new();
        (1u64 << 60).encode(&mut buf);
        assert!(matches!(
            Vec::<f64>::from_wire(&buf),
            Err(WireError::Malformed(_)) | Err(WireError::Truncated { .. })
        ));
        // A string claiming more bytes than the frame holds.
        let mut buf = Vec::new();
        (100u64).encode(&mut buf);
        buf.extend_from_slice(b"short");
        assert!(matches!(String::from_wire(&buf), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn malformed_tags_are_rejected() {
        assert_eq!(
            bool::from_wire(&[2]),
            Err(WireError::Malformed("bool byte is neither 0 nor 1"))
        );
        assert!(matches!(Option::<u8>::from_wire(&[7, 0]), Err(WireError::Malformed(_))));
        let mut buf = Vec::new();
        (2u64).encode(&mut buf);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(String::from_wire(&buf), Err(WireError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = 7u32.to_wire();
        buf.push(0);
        assert_eq!(u32::from_wire(&buf), Err(WireError::TrailingBytes(1)));
    }
}
