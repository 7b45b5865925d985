//! Postcard-style binary codec for the serde shim's [`Value`] tree.
//!
//! Every frame payload in the store is one encoded `Value`. Encoding
//! a `Value` instead of per-type layouts keeps the store generic —
//! `Serialize::to_value` / `Deserialize::from_value` already exist
//! for every checkpointed type, so the binary path reuses the exact
//! validation the JSON path runs — while fixing JSON's lossiness:
//! `F64` is stored as raw little-endian bits, so NaNs, infinities,
//! and every subnormal roundtrip bitwise (JSON collapses non-finite
//! floats to `null`).
//!
//! Wire format, one byte tag then tag-specific body:
//!
//! | tag | value      | body                                        |
//! |-----|------------|---------------------------------------------|
//! | 0   | `Null`     | —                                           |
//! | 1   | `false`    | —                                           |
//! | 2   | `true`     | —                                           |
//! | 3   | `I64`      | zigzag varint                               |
//! | 4   | `U64`      | varint                                      |
//! | 5   | `F64`      | 8 bytes, little-endian IEEE 754 bits        |
//! | 6   | `Str`      | varint byte length, UTF-8 bytes             |
//! | 7   | `Array`    | varint count, then each element             |
//! | 8   | `Object`   | varint count, then (Str-body key, value)*   |
//! | 9   | `F64Array` | varint count, then raw LE doubles           |
//!
//! Tag 9 is a write-side optimization: an `Array` whose elements are
//! all `F64` (the dominant shape — feature vectors and other large
//! numeric columns) is packed as contiguous doubles, cutting the
//! per-element tag byte and making large vectors `memcpy`-shaped. It
//! decodes back to a plain `Value::Array` of `F64`.
//!
//! The decoder is **total**: any byte slice yields either a `Value`
//! or a [`CodecError`] — never a panic, unbounded allocation, or
//! unbounded recursion. Declared counts are bounded by the bytes
//! actually remaining (each element needs ≥ 1 byte) before any
//! allocation, and nesting is capped at [`MAX_DEPTH`].

use serde::Value;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;
const TAG_F64_ARRAY: u8 = 9;

/// Maximum nesting depth the decoder will follow. Checkpoint values
/// nest a handful of levels; 64 is far above any legitimate payload
/// while keeping adversarial recursion trivially bounded.
pub const MAX_DEPTH: usize = 64;

/// Decode failure: the payload is not a well-formed encoded `Value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Truncated,
    /// A varint was malformed (truncated or overflowing).
    BadVarint,
    /// An unknown tag byte.
    BadTag(u8),
    /// A string body was not valid UTF-8.
    BadUtf8,
    /// A declared element/byte count exceeds the remaining input.
    BadLength,
    /// Nesting deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Well-formed value followed by trailing bytes.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("payload truncated"),
            CodecError::BadVarint => f.write_str("malformed varint"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t}"),
            CodecError::BadUtf8 => f.write_str("string is not valid UTF-8"),
            CodecError::BadLength => f.write_str("declared length exceeds remaining input"),
            CodecError::TooDeep => f.write_str("value nesting exceeds depth limit"),
            CodecError::TrailingBytes => f.write_str("trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes `value` into a fresh byte buffer.
pub fn encode_value(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(value, &mut out);
    out
}

/// Appends the encoding of `value` to `out`.
pub fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::I64(v) => {
            out.push(TAG_I64);
            crate::varint::write_i64(out, *v);
        }
        Value::U64(v) => {
            out.push(TAG_U64);
            crate::varint::write_u64(out, *v);
        }
        Value::F64(v) => {
            out.push(TAG_F64);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_str_body(s, out);
        }
        Value::Array(items) => {
            if !items.is_empty() && items.iter().all(|v| matches!(v, Value::F64(_))) {
                out.push(TAG_F64_ARRAY);
                crate::varint::write_u64(out, items.len() as u64);
                for item in items {
                    if let Value::F64(v) = item {
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            } else {
                out.push(TAG_ARRAY);
                crate::varint::write_u64(out, items.len() as u64);
                for item in items {
                    encode_into(item, out);
                }
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            crate::varint::write_u64(out, fields.len() as u64);
            for (key, val) in fields {
                encode_str_body(key, out);
                encode_into(val, out);
            }
        }
    }
}

fn encode_str_body(s: &str, out: &mut Vec<u8>) {
    crate::varint::write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Decodes exactly one `Value` spanning all of `bytes`.
///
/// # Errors
///
/// [`CodecError`] on any malformation, including trailing bytes
/// after a well-formed value.
pub fn decode_value(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut cursor = Cursor { buf: bytes, pos: 0 };
    let value = decode_at(&mut cursor, 0)?;
    if cursor.pos != bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(value)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take_byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take_slice(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    fn take_u64(&mut self) -> Result<u64, CodecError> {
        let (v, used) = crate::varint::read_u64(&self.buf[self.pos..]).map_err(|e| match e {
            crate::varint::VarintError::Truncated => CodecError::Truncated,
            crate::varint::VarintError::Overflow => CodecError::BadVarint,
        })?;
        self.pos += used;
        Ok(v)
    }

    fn take_i64(&mut self) -> Result<i64, CodecError> {
        let (v, used) = crate::varint::read_i64(&self.buf[self.pos..]).map_err(|e| match e {
            crate::varint::VarintError::Truncated => CodecError::Truncated,
            crate::varint::VarintError::Overflow => CodecError::BadVarint,
        })?;
        self.pos += used;
        Ok(v)
    }

    fn take_f64(&mut self) -> Result<f64, CodecError> {
        let raw = self.take_slice(8)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(le)))
    }

    fn take_str(&mut self) -> Result<String, CodecError> {
        let len = self.bounded_count(1)?;
        let raw = self.take_slice(len)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a count varint and rejects it before any allocation if
    /// `count * min_bytes_per_item` cannot fit in the remaining
    /// input — a flipped length byte must not trigger a huge `Vec`.
    fn bounded_count(&mut self, min_bytes_per_item: usize) -> Result<usize, CodecError> {
        let declared = self.take_u64()?;
        let ceiling = (self.remaining() / min_bytes_per_item.max(1)) as u64;
        if declared > ceiling {
            return Err(CodecError::BadLength);
        }
        Ok(declared as usize)
    }
}

fn decode_at(cursor: &mut Cursor<'_>, depth: usize) -> Result<Value, CodecError> {
    if depth >= MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    match cursor.take_byte()? {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_I64 => Ok(Value::I64(cursor.take_i64()?)),
        TAG_U64 => Ok(Value::U64(cursor.take_u64()?)),
        TAG_F64 => Ok(Value::F64(cursor.take_f64()?)),
        TAG_STR => Ok(Value::Str(cursor.take_str()?)),
        TAG_ARRAY => {
            let count = cursor.bounded_count(1)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_at(cursor, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            // Each field needs at least a 1-byte key length, an empty
            // key, and a 1-byte value tag.
            let count = cursor.bounded_count(2)?;
            let mut fields = Vec::with_capacity(count);
            for _ in 0..count {
                let key = cursor.take_str()?;
                let val = decode_at(cursor, depth + 1)?;
                fields.push((key, val));
            }
            Ok(Value::Object(fields))
        }
        TAG_F64_ARRAY => {
            let count = cursor.bounded_count(8)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(Value::F64(cursor.take_f64()?));
            }
            Ok(Value::Array(items))
        }
        other => Err(CodecError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let bytes = encode_value(v);
        let back = decode_value(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    fn sample_object() -> Value {
        Value::Object(vec![
            ("epoch".into(), Value::U64(42)),
            ("loss".into(), Value::F64(0.125)),
            ("delta".into(), Value::I64(-7)),
            ("tag".into(), Value::Str("fold-3".into())),
            ("done".into(), Value::Bool(false)),
            ("missing".into(), Value::Null),
            (
                "params".into(),
                Value::Array(vec![
                    Value::F64(1.0),
                    Value::F64(-0.5),
                    Value::F64(f64::MIN_POSITIVE),
                ]),
            ),
            (
                "mixed".into(),
                Value::Array(vec![Value::U64(1), Value::Str("x".into()), Value::Null]),
            ),
            ("empty".into(), Value::Array(vec![])),
        ])
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(i64::MIN),
            Value::U64(u64::MAX),
            Value::F64(0.0),
            Value::F64(-0.0),
            Value::Str(String::new()),
            Value::Str("héllo wörld".into()),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn nested_object_roundtrips() {
        roundtrip(&sample_object());
    }

    /// JSON loses NaN/∞ (they serialize as `null`); the binary codec
    /// must preserve the exact bits.
    #[test]
    fn nonfinite_and_nan_payload_bits_roundtrip() {
        for bits in [
            f64::NAN.to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            0x7FF8_0000_DEAD_BEEF, // quiet NaN with payload
            (-0.0f64).to_bits(),
        ] {
            let v = Value::F64(f64::from_bits(bits));
            let back = decode_value(&encode_value(&v)).expect("decode");
            match back {
                Value::F64(f) => assert_eq!(f.to_bits(), bits),
                other => panic!("expected F64, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_f64_arrays_use_the_packed_encoding() {
        let packed = encode_value(&Value::Array(vec![Value::F64(1.0); 100]));
        let mixed = encode_value(&Value::Array(
            std::iter::repeat_n(Value::F64(1.0), 99)
                .chain(std::iter::once(Value::Null))
                .collect::<Vec<_>>(),
        ));
        assert_eq!(packed[0], TAG_F64_ARRAY);
        assert_eq!(mixed[0], TAG_ARRAY);
        // Packed drops the per-element tag byte: 100 elements save
        // 100 bytes minus the one swapped element.
        assert!(packed.len() < mixed.len());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_value(&Value::U64(7));
        bytes.push(0);
        assert_eq!(decode_value(&bytes), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode_value(&[200]), Err(CodecError::BadTag(200)));
    }

    #[test]
    fn empty_input_is_truncated() {
        assert_eq!(decode_value(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn huge_declared_count_is_rejected_without_allocating() {
        // Array claiming u64::MAX elements with no bodies.
        let mut bytes = vec![TAG_ARRAY];
        crate::varint::write_u64(&mut bytes, u64::MAX);
        assert_eq!(decode_value(&bytes), Err(CodecError::BadLength));

        // Packed f64 array claiming more doubles than bytes remain.
        let mut bytes = vec![TAG_F64_ARRAY];
        crate::varint::write_u64(&mut bytes, 1 << 40);
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_value(&bytes), Err(CodecError::BadLength));

        // String claiming a longer body than remains.
        let mut bytes = vec![TAG_STR];
        crate::varint::write_u64(&mut bytes, 1 << 30);
        bytes.extend_from_slice(b"abc");
        assert_eq!(decode_value(&bytes), Err(CodecError::BadLength));
    }

    #[test]
    fn deep_nesting_is_rejected() {
        // MAX_DEPTH+8 nested single-element arrays.
        let depth = MAX_DEPTH + 8;
        let mut bytes = Vec::new();
        for _ in 0..depth {
            bytes.push(TAG_ARRAY);
            bytes.push(1); // one element
        }
        bytes.push(TAG_NULL);
        assert_eq!(decode_value(&bytes), Err(CodecError::TooDeep));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = vec![TAG_STR];
        crate::varint::write_u64(&mut bytes, 2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_value(&bytes), Err(CodecError::BadUtf8));
    }

    /// The decoder must be total: every truncation of a real payload
    /// errors rather than panicking or succeeding.
    #[test]
    fn every_truncation_of_a_real_payload_is_detected() {
        let bytes = encode_value(&sample_object());
        for cut in 0..bytes.len() {
            match decode_value(&bytes[..cut]) {
                Err(_) => {}
                Ok(v) => panic!("truncation at {cut} decoded silently to {v:?}"),
            }
        }
    }
}
