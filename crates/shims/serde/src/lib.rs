//! Offline shim for `serde`: a real (if small) serialization framework.
//!
//! Earlier revisions of this shim were empty marker traits — the workspace
//! only *derived* `Serialize`/`Deserialize` and never serialized anything.
//! The `qss` pipeline API now emits every stage artifact as JSON, so the
//! shim grew into a working mini-serde with two serialization paths:
//!
//! * [`Serialize::write_json`] streams a value straight into a
//!   [`JsonWriter`] as JSON text, with no intermediate tree. This is the
//!   serialization path: `serde_json::to_string`/`to_string_pretty` call
//!   it.
//! * [`Serialize::to_value`] builds a JSON [`Value`] tree, for callers
//!   that need one (inspecting or editing a document, the parser's
//!   output). A tree renders through the same [`JsonWriter`], so both
//!   paths write the same bytes.
//! * [`Deserialize`] rebuilds a value from a [`Value`].
//! * The companion `serde_derive` shim generates all three methods for
//!   structs and enums (externally tagged, like real serde's default).
//! * The companion `serde_json` shim wraps the writer in the real API and
//!   parses JSON text back into a [`Value`].
//!
//! The data model intentionally mirrors `serde_json`'s defaults (structs
//! as objects, tuples as arrays, newtypes transparent, enums externally
//! tagged, maps with string keys as objects) so that swapping in the real
//! crates keeps the wire format. Maps with non-string keys are encoded as
//! arrays of `[key, value]` pairs — real `serde_json` errors on those, so
//! avoid them in types that must stay format-compatible.
//!
//! See `crates/shims/README.md` for the scope of every shim.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

pub mod derive;
mod impls;
mod value;
mod writer;

pub use value::{Number, Value};
pub use writer::JsonWriter;

use std::fmt;

/// Error produced when deserializing from a [`Value`] fails.
///
/// (Real serde keeps errors in `serde_json`; the shim defines the type
/// here so that generated code only ever references the `serde` crate.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn custom(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Serialization into JSON text or the JSON [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`] tree.
    fn to_value(&self) -> Value;

    /// Writes `self` as JSON text. Must write the same bytes as rendering
    /// [`Serialize::to_value`] through the writer, which is what the
    /// default does; implementations override it to skip the tree.
    fn write_json(&self, w: &mut JsonWriter) {
        w.value(&self.to_value());
    }
}

/// Deserialization from the JSON [`Value`] data model.
///
/// The lifetime parameter exists for signature compatibility with real
/// serde (`#[derive(Deserialize)]` expands to `impl<'de> Deserialize<'de>`);
/// the shim never borrows from the input.
pub trait Deserialize<'de>: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// A value deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
