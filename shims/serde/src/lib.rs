//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! a value-tree serialization framework under serde's names: a type
//! implementing [`Serialize`] renders itself into a [`Value`] tree, and
//! [`Deserialize`] rebuilds the type from such a tree. `serde_json` (also
//! vendored) converts between [`Value`] trees and JSON text. The derive
//! macros re-exported here come from the vendored `serde_derive`
//! proc-macro crate and mirror serde's external data model: structs as
//! objects, unit enum variants as strings, data-carrying variants as
//! single-key objects, `#[serde(default)]` and container-level
//! `#[serde(from = "...", into = "...")]`.
//!
//! Only the API surface this workspace uses is provided; wire formats are
//! compatible with real serde_json for every type the repo serialises.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Duration;

pub use serde_derive::{Deserialize, Serialize};

/// An ordered string-keyed map of [`Value`]s (JSON object).
///
/// Backed by an insertion-ordered vector: the workspace's objects are
/// small, and preserving field order keeps emitted JSON readable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty object.
    pub fn new() -> Self {
        Map::default()
    }

    /// Insert or replace `key`, returning the previous value if any.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A serialized value tree (the JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer too large for `i64`, or any unsigned source.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object.
    Object(Map),
}

impl Value {
    /// The value as a signed 128-bit integer, if it is integral.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Value::Int(v) => Some(*v as i128),
            Value::UInt(v) => Some(*v as i128),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i128),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::UInt(v) => Some(*v as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// A short name of the value's type for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Render `self` into a [`Value`] tree.
pub trait Serialize {
    /// The serialized form.
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parse the serialized form.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// `serde::ser` namespace compatibility.
pub mod ser {
    pub use super::{Error, Serialize};
}

/// `serde::de` namespace compatibility.
pub mod de {
    pub use super::{Deserialize, Error};

    /// Owned deserialization marker; with a value-tree model every
    /// [`Deserialize`] is already owned.
    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}
}

fn type_err<T>(expected: &str, got: &Value) -> Result<T, Error> {
    Err(Error::custom(format!(
        "expected {expected}, found {}",
        got.kind()
    )))
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => type_err("bool", other),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i128().ok_or_else(|| Error::custom(
                    format!("expected integer, found {}", v.kind()),
                ))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i128().ok_or_else(|| Error::custom(
                    format!("expected integer, found {}", v.kind()),
                ))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| Error::custom(format!("expected number, found {}", v.kind())))
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => type_err("string", other),
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
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => type_err("single-character string", other),
        }
    }
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
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
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => type_err("array", other),
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

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array, found {}", v.kind())))?;
        if items.len() != N {
            return Err(Error::custom(format!(
                "expected array of length {N}, found {}",
                items.len()
            )));
        }
        let parsed: Result<Vec<T>, Error> = items.iter().map(T::from_value).collect();
        parsed.map(|vec| {
            vec.try_into()
                .unwrap_or_else(|_| unreachable!("length checked above"))
        })
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => type_err("array", other),
        }
    }
}

impl<T: Serialize + Eq + std::hash::Hash> Serialize for HashSet<T> {
    fn to_value(&self) -> Value {
        let mut items: Vec<Value> = self.iter().map(Serialize::to_value).collect();
        // Deterministic output regardless of hash order.
        items.sort_by(cmp_values);
        Value::Array(items)
    }
}

impl<T: Deserialize + Eq + std::hash::Hash> Deserialize for HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => type_err("array", other),
        }
    }
}

fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    format!("{a:?}").cmp(&format!("{b:?}"))
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        let mut map = Map::new();
        for k in keys {
            map.insert(k.clone(), self[k].to_value());
        }
        Value::Object(map)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => type_err("object", other),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        for (k, v) in self {
            map.insert(k.clone(), v.to_value());
        }
        Value::Object(map)
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => type_err("object", other),
        }
    }
}

macro_rules! impl_tuple {
    ($($len:literal => ($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    Value::Array(items) => Err(Error::custom(format!(
                        "expected array of {}, found array of {}", $len, items.len(),
                    ))),
                    other => type_err("array", other),
                }
            }
        }
    )*};
}

impl_tuple! {
    1 => (A.0)
    2 => (A.0, B.1)
    3 => (A.0, B.1, C.2)
    4 => (A.0, B.1, C.2, D.3)
    5 => (A.0, B.1, C.2, D.3, E.4)
    6 => (A.0, B.1, C.2, D.3, E.4, F.5)
    7 => (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    8 => (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("secs", Value::UInt(self.as_secs()));
        map.insert("nanos", Value::UInt(self.subsec_nanos() as u64));
        Value::Object(map)
    }
}

impl Deserialize for Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom("expected duration object"))?;
        let secs = obj
            .get("secs")
            .ok_or_else(|| Error::custom("duration missing `secs`"))
            .and_then(u64::from_value)?;
        let nanos = obj
            .get("nanos")
            .ok_or_else(|| Error::custom("duration missing `nanos`"))
            .and_then(u32::from_value)?;
        Ok(Duration::new(secs, nanos))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => type_err("null", other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f32::from_value(&0.1f32.to_value()).unwrap(), 0.1f32);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u32, 2.5f64), (3, 4.5)];
        assert_eq!(Vec::<(u32, f64)>::from_value(&v.to_value()).unwrap(), v);
        let opt: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&opt.to_value()).unwrap(), None);
        let mut m = HashMap::new();
        m.insert("a".to_string(), 1usize);
        assert_eq!(
            HashMap::<String, usize>::from_value(&m.to_value()).unwrap(),
            m
        );
        let d = Duration::from_millis(1234);
        assert_eq!(Duration::from_value(&d.to_value()).unwrap(), d);
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
        assert!(bool::from_value(&Value::Int(1)).is_err());
    }

    #[test]
    fn map_insert_replaces() {
        let mut m = Map::new();
        assert!(m.insert("k", Value::Int(1)).is_none());
        assert_eq!(m.insert("k", Value::Int(2)), Some(Value::Int(1)));
        assert_eq!(m.get("k"), Some(&Value::Int(2)));
        assert_eq!(m.len(), 1);
    }
}
