//! `Serialize`/`Deserialize` implementations for std types.

use crate::value::{Number, Value};
use crate::{Deserialize, DeserializeOwned, Error, JsonWriter, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, OnceLock};

fn expected(what: &str, got: &Value) -> Error {
    Error::custom(format!("expected {what}, found {}", got.kind()))
}

// ---------------------------------------------------------------- numbers

macro_rules! int_impl {
    ($ty:ty, via $via:ident, $as:ident) => {
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::Number(Number::from(*self as $via))
            }
            fn write_json(&self, w: &mut JsonWriter) {
                w.$via(*self as $via);
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = value
                    .$as()
                    .ok_or_else(|| expected(stringify!($ty), value))?;
                <$ty>::try_from(raw).map_err(|_| {
                    Error::custom(format!(
                        "number {raw} is out of range for {}",
                        stringify!($ty)
                    ))
                })
            }
        }
    };
}

int_impl!(u8, via u64, as_u64);
int_impl!(u16, via u64, as_u64);
int_impl!(u32, via u64, as_u64);
int_impl!(u64, via u64, as_u64);
int_impl!(usize, via u64, as_u64);
int_impl!(i8, via i64, as_i64);
int_impl!(i16, via i64, as_i64);
int_impl!(i32, via i64, as_i64);
int_impl!(i64, via i64, as_i64);
int_impl!(isize, via i64, as_i64);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from(*self))
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.f64(*self);
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_f64().ok_or_else(|| expected("f64", value))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from(f64::from(*self)))
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.f64(f64::from(*self));
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .map(|v| v as f32)
            .ok_or_else(|| expected("f32", value))
    }
}

// ------------------------------------------------------- bool and strings

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.bool(*self);
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_bool().ok_or_else(|| expected("boolean", value))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| expected("string", value))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

/// `&'static str` deserializes through a global intern pool (the shim
/// cannot borrow from the transient [`Value`]). Types such as the cost
/// models keep `&'static str` profile names; interning leaks at most one
/// copy per distinct string ever deserialized.
impl<'de> Deserialize<'de> for &'static str {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let s = value.as_str().ok_or_else(|| expected("string", value))?;
        static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
        let mut pool = POOL
            .get_or_init(|| Mutex::new(BTreeSet::new()))
            .lock()
            .expect("intern pool poisoned");
        if let Some(interned) = pool.get(s) {
            return Ok(interned);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        pool.insert(leaked);
        Ok(leaked)
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_value(value).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| expected("array", value))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(w, self);
    }
}

fn write_seq<'a, T: Serialize + 'a>(w: &mut JsonWriter, items: impl IntoIterator<Item = &'a T>) {
    w.begin_array();
    for item in items {
        item.write_json(w);
    }
    w.end_array();
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(w, self);
    }
}

impl<'de, T: DeserializeOwned + Ord> Deserialize<'de> for BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| expected("array", value))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

/// Maps serialize as JSON objects when every key serializes to a string
/// (the `serde_json` encoding); any other key type falls back to an array
/// of `[key, value]` pairs, which real `serde_json` would reject — see the
/// crate docs.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        let pairs: Vec<(Value, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_value(), v.to_value()))
            .collect();
        if pairs.iter().all(|(k, _)| matches!(k, Value::String(_))) {
            Value::Object(
                pairs
                    .into_iter()
                    .map(|(k, v)| match k {
                        Value::String(s) => (s, v),
                        _ => unreachable!("checked above"),
                    })
                    .collect(),
            )
        } else {
            Value::Array(
                pairs
                    .into_iter()
                    .map(|(k, v)| Value::Array(vec![k, v]))
                    .collect(),
            )
        }
    }

    /// Streams the values; only the keys go through [`Value`]s, to pick
    /// the encoding before the first byte is written.
    fn write_json(&self, w: &mut JsonWriter) {
        let keys: Vec<Value> = self.keys().map(Serialize::to_value).collect();
        if keys.iter().all(|k| matches!(k, Value::String(_))) {
            w.begin_object();
            for (key, value) in keys.iter().zip(self.values()) {
                w.field(key.as_str().expect("checked above"), value);
            }
            w.end_object();
        } else {
            w.begin_array();
            for (key, value) in keys.iter().zip(self.values()) {
                w.begin_array();
                w.value(key);
                value.write_json(w);
                w.end_array();
            }
            w.end_array();
        }
    }
}

impl<'de, K: DeserializeOwned + Ord, V: DeserializeOwned> Deserialize<'de> for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| {
                    let key = K::from_value(&Value::String(k.clone()))?;
                    Ok((key, V::from_value(v)?))
                })
                .collect(),
            Value::Array(items) => items
                .iter()
                .map(|item| {
                    let pair = item.as_array().ok_or_else(|| {
                        Error::custom("expected a [key, value] pair in map encoding")
                    })?;
                    if pair.len() != 2 {
                        return Err(Error::custom(format!(
                            "expected a [key, value] pair, found {} items",
                            pair.len()
                        )));
                    }
                    Ok((K::from_value(&pair[0])?, V::from_value(&pair[1])?))
                })
                .collect(),
            other => Err(expected("object or array of pairs", other)),
        }
    }
}

// ------------------------------------------------------------------ tuples

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.null();
    }
}

impl<'de> Deserialize<'de> for () {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(())
        } else {
            Err(expected("null", value))
        }
    }
}

macro_rules! tuple_impl {
    ($len:literal => $(($idx:tt, $name:ident)),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
            fn write_json(&self, w: &mut JsonWriter) {
                w.begin_array();
                $(self.$idx.write_json(w);)+
                w.end_array();
            }
        }
        impl<'de, $($name: DeserializeOwned),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value.as_array().ok_or_else(|| expected("array", value))?;
                if items.len() != $len {
                    return Err(Error::custom(format!(
                        "expected a tuple of {} items, found {}",
                        $len,
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    };
}

tuple_impl!(1 => (0, A));
tuple_impl!(2 => (0, A), (1, B));
tuple_impl!(3 => (0, A), (1, B), (2, C));
tuple_impl!(4 => (0, A), (1, B), (2, C), (3, D));

// ---------------------------------------------------------- Value itself

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.value(self);
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}
