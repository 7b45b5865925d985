//! Vendored stand-in for the parts of `serde` that forumcast uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! ships this minimal replacement. Instead of serde's visitor-based
//! zero-copy architecture, it uses a concrete JSON-like [`Value`]
//! tree: `Serialize` renders a type into a `Value`, `Deserialize`
//! reads one back. The derive macros (from the sibling
//! `serde_derive` shim) generate impls matching serde's default
//! externally-tagged data model, so the JSON produced by the
//! `serde_json` shim matches what upstream serde_json would emit for
//! the same types.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree: the intermediate representation between
/// typed data and text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating-point number (`NaN`/infinite serialize as `null`).
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// Deserialization error: a message plus optional field context.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// Creates an error from a message.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialization of `self` into a [`Value`]. Mirrors
/// `serde::Serialize` for the JSON-only data model.
pub trait Serialize {
    /// Renders `self` as a value tree.
    fn to_value(&self) -> Value;
}

/// Reconstruction of `Self` from a [`Value`]. Mirrors
/// `serde::Deserialize`.
pub trait Deserialize: Sized {
    /// Parses a value tree into `Self`.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] on shape or type mismatch.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// --- helpers used by derive-generated code -------------------------

/// Interprets `v` as an object, with `ty` naming the expected type in
/// errors.
pub fn expect_object<'a>(v: &'a Value, ty: &str) -> Result<&'a [(String, Value)], DeError> {
    match v {
        Value::Object(fields) => Ok(fields),
        other => Err(DeError(format!(
            "expected object for `{ty}`, found {}",
            kind(other)
        ))),
    }
}

/// Interprets `v` as an array of exactly `len` elements.
pub fn expect_tuple<'a>(v: &'a Value, len: usize, ty: &str) -> Result<&'a [Value], DeError> {
    match v {
        Value::Array(items) if items.len() == len => Ok(items),
        Value::Array(items) => Err(DeError(format!(
            "expected {len} elements for `{ty}`, found {}",
            items.len()
        ))),
        other => Err(DeError(format!(
            "expected array for `{ty}`, found {}",
            kind(other)
        ))),
    }
}

/// Looks up a field in an object's pairs.
pub fn obj_get<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Error for an object missing a required field.
pub fn missing_field(field: &str, ty: &str) -> DeError {
    DeError(format!("missing field `{field}` in `{ty}`"))
}

/// Splits an externally-tagged enum value into `(tag, payload)`:
/// `"Tag"` for unit variants, `{"Tag": payload}` otherwise.
pub fn enum_parts<'a>(v: &'a Value, ty: &str) -> Result<(&'a str, Option<&'a Value>), DeError> {
    match v {
        Value::Str(tag) => Ok((tag, None)),
        Value::Object(fields) if fields.len() == 1 => {
            Ok((fields[0].0.as_str(), Some(&fields[0].1)))
        }
        other => Err(DeError(format!(
            "expected enum tag for `{ty}`, found {}",
            kind(other)
        ))),
    }
}

/// Error for an unrecognized enum tag.
pub fn unknown_variant(tag: &str, ty: &str) -> DeError {
    DeError(format!("unknown variant `{tag}` for `{ty}`"))
}

/// Human-readable name of a value's kind, for error messages.
pub fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

// --- primitive impls ----------------------------------------------

macro_rules! impl_serde_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: i64 = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range")))?,
                    Value::F64(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => *f as i64,
                    other => return Err(DeError(format!(
                        "expected integer, found {}", kind(other)
                    ))),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!(
                    "{n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

impl_serde_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as u64;
                match i64::try_from(n) {
                    Ok(i) => Value::I64(i),
                    Err(_) => Value::U64(n),
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: u64 = match v {
                    Value::I64(n) => u64::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range")))?,
                    Value::U64(n) => *n,
                    Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 && *f < 1.9e19 => *f as u64,
                    other => return Err(DeError(format!(
                        "expected integer, found {}", kind(other)
                    ))),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!(
                    "{n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

impl_serde_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::I64(n) => Ok(*n as f64),
            Value::U64(n) => Ok(*n as f64),
            Value::F64(f) => Ok(*f),
            other => Err(DeError(format!("expected number, found {}", kind(other)))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError(format!("expected boolean, found {}", kind(other)))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, found {}", kind(other)))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError(format!(
                "expected single-char string, found {}",
                kind(other)
            ))),
        }
    }
}

// --- composite impls ----------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => {
                // Sized up front: the vector is held at its exact length.
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(T::from_value(item)?);
                }
                Ok(out)
            }
            other => Err(DeError(format!("expected array, found {}", kind(other)))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_serde_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                const LEN: usize = [$($i),+].len();
                let items = expect_tuple(v, LEN, "tuple")?;
                Ok(($($t::from_value(&items[$i])?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Map keys must render to / parse from JSON object keys (strings).
pub trait MapKey: Sized + std::hash::Hash + Eq + Ord {
    /// Key as an object-key string.
    fn to_key(&self) -> String;
    /// Key parsed back from an object-key string.
    fn from_key(s: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, DeError> {
        Ok(s.to_string())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, DeError> {
                s.parse().map_err(|_| DeError(format!("invalid map key `{s}`")))
            }
        }
    )*};
}

impl_map_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey, V: Serialize, S: std::hash::BuildHasher> Serialize
    for std::collections::HashMap<K, V, S>
{
    fn to_value(&self) -> Value {
        // Sorted keys keep the output deterministic across runs
        // (std's HashMap iteration order is randomized).
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        Value::Object(
            keys.into_iter()
                .map(|k| (k.to_key(), self[k].to_value()))
                .collect(),
        )
    }
}

impl<K: MapKey, V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize
    for std::collections::HashMap<K, V, S>
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = expect_object(v, "map")?;
        fields
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl<K: MapKey, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: MapKey, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = expect_object(v, "map")?;
        fields
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn options_and_vecs_roundtrip() {
        let v: Option<u32> = None;
        assert_eq!(v.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        let xs = vec![(vec![1.0f64, 2.0], 3.0f64)];
        let back = Vec::<(Vec<f64>, f64)>::from_value(&xs.to_value()).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn integer_range_checks() {
        assert!(u8::from_value(&Value::I64(300)).is_err());
        assert!(u32::from_value(&Value::I64(-1)).is_err());
        assert_eq!(u64::from_value(&Value::U64(u64::MAX)).unwrap(), u64::MAX);
    }

    #[test]
    fn hashmap_serializes_sorted() {
        let mut m = std::collections::HashMap::new();
        m.insert("b".to_string(), 2u32);
        m.insert("a".to_string(), 1u32);
        match m.to_value() {
            Value::Object(fields) => {
                assert_eq!(fields[0].0, "a");
                assert_eq!(fields[1].0, "b");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }
}
