//! Offline stand-in for `serde` (see DESIGN.md §9).
//!
//! The build environment has no crates.io access, so this crate provides
//! the serialization surface the workspace uses: `Serialize` /
//! `Deserialize` traits with `#[derive(...)]` support over a JSON value
//! tree. Unlike real serde there is no `Serializer`/`Visitor`
//! indirection — types convert to and from [`Value`] directly, and
//! `serde_json` in this workspace renders/parses that tree.

pub use serde_derive::{Deserialize, Serialize};

/// Serialization/deserialization error (a human-readable message).
pub type Error = String;

/// A JSON-style number: integer variants preserve 64-bit precision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
}

impl Number {
    /// The value as `f64` (lossy for large integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::UInt(v) => v as f64,
            Number::Int(v) => v as f64,
            Number::Float(v) => v,
        }
    }

    /// The value as `u64` if it is a non-negative integer (exact integral
    /// floats are accepted).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::UInt(v) => Some(v),
            Number::Int(v) => u64::try_from(v).ok(),
            Number::Float(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            Number::Float(_) => None,
        }
    }

    /// The value as `i64` if it fits (exact integral floats are accepted).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::UInt(v) => i64::try_from(v).ok(),
            Number::Int(v) => Some(v),
            Number::Float(v)
                if v.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&v) =>
            {
                Some(v as i64)
            }
            Number::Float(_) => None,
        }
    }
}

/// A JSON-style dynamically-typed value (the serialization data model).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map with string keys (insertion order preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up an object field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Looks up a required field in object entries (used by derived code).
///
/// # Errors
///
/// Fails if `key` is absent.
pub fn get_field<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, Error> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

/// Conversion into the serialization data model.
pub trait Serialize {
    /// Converts `self` to a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// Reconstruction from the serialization data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Fails when the value's shape does not match `Self`.
    fn from_value(v: &Value) -> Result<Self, Error>;
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

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("expected bool, got {v:?}")),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::UInt(*self as u64))
            }
        }

        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Number(n) => n.as_u64(),
                    _ => None,
                }
                .ok_or_else(|| format!(concat!("expected ", stringify!($t), ", got {:?}"), v))?;
                <$t>::try_from(n).map_err(|_| {
                    format!(concat!("value {} out of range for ", stringify!($t)), n)
                })
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Number(Number::UInt(v as u64))
                } else {
                    Value::Number(Number::Int(v))
                }
            }
        }

        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Number(n) => n.as_i64(),
                    _ => None,
                }
                .ok_or_else(|| format!(concat!("expected ", stringify!($t), ", got {:?}"), v))?;
                <$t>::try_from(n).map_err(|_| {
                    format!(concat!("value {} out of range for ", stringify!($t)), n)
                })
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::Float(*self as f64))
            }
        }

        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => Ok(n.as_f64() as $t),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(format!(concat!("expected ", stringify!($t), ", got {:?}"), v)),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(format!("expected string, got {v:?}")),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
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

impl<T: Deserialize> Deserialize for Box<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::from_value(v).map(Vec::into_boxed_slice)
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

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(format!("expected array, got {v:?}")),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| format!("expected array of length {N}, got {len}"))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                let items = v
                    .as_array()
                    .ok_or_else(|| format!("expected tuple array, got {v:?}"))?;
                if items.len() != LEN {
                    return Err(format!("expected {LEN}-tuple, got {} items", items.len()));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
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
