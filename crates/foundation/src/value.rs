//! Dynamic signal values exchanged over ports.
//!
//! AUTOSAR ports carry statically typed signals; plug-in ports, in contrast,
//! carry whatever the plug-in developer shipped.  The PIRTE's virtual ports
//! translate between the two worlds (paper §3.1.3), so the common currency of
//! this reproduction is a small dynamic [`Value`] type that both the RTE
//! signal model and the plug-in virtual machine understand.

use std::fmt;

use crate::error::DynarError;

/// A dynamically typed value carried over SW-C ports, virtual ports and
/// plug-in ports.
///
/// # Example
/// ```
/// use dynar_foundation::value::Value;
///
/// let speed = Value::F64(13.5);
/// assert_eq!(speed.kind(), "f64");
/// assert_eq!(speed.as_f64(), Some(13.5));
/// assert!(Value::from(true).as_bool().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// The absence of a value (an un-written port reads as `Void`).
    #[default]
    Void,
    /// A boolean flag.
    Bool(bool),
    /// A signed integer, the natural type for VM registers and discrete signals.
    I64(i64),
    /// A floating-point quantity such as a speed or wheel angle.
    F64(f64),
    /// An opaque byte payload (e.g. a serialized installation package).
    Bytes(Vec<u8>),
    /// A human-readable text payload (e.g. an external message id).
    Text(String),
    /// An ordered collection of values (e.g. a multiplexed record).
    List(Vec<Value>),
}

impl Value {
    /// A short, stable name for the value's variant, useful in diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Void => "void",
            Value::Bool(_) => "bool",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Bytes(_) => "bytes",
            Value::Text(_) => "text",
            Value::List(_) => "list",
        }
    }

    /// Returns `true` if the value is [`Value::Void`].
    pub fn is_void(&self) -> bool {
        matches!(self, Value::Void)
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, widening from `Bool` where unambiguous.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Returns the floating-point payload, widening from `I64` where lossless
    /// enough for control signals.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the byte payload, if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the text payload, if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the list payload, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Converts the value to an `i64`, reporting a typed error on mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::TypeMismatch`] when the value has no integer
    /// representation.
    pub fn expect_i64(&self) -> Result<i64, DynarError> {
        self.as_i64().ok_or_else(|| DynarError::TypeMismatch {
            expected: "i64",
            found: self.kind(),
        })
    }

    /// Converts the value to an `f64`, reporting a typed error on mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::TypeMismatch`] when the value has no float
    /// representation.
    pub fn expect_f64(&self) -> Result<f64, DynarError> {
        self.as_f64().ok_or_else(|| DynarError::TypeMismatch {
            expected: "f64",
            found: self.kind(),
        })
    }

    /// An approximate payload size in bytes, used by the bus and bench
    /// workload models to account for transport cost.
    pub fn payload_size(&self) -> usize {
        match self {
            Value::Void => 0,
            Value::Bool(_) => 1,
            Value::I64(_) | Value::F64(_) => 8,
            Value::Bytes(b) => b.len(),
            Value::Text(t) => t.len(),
            Value::List(l) => l.iter().map(Value::payload_size).sum::<usize>() + l.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Void => write!(f, "void"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Text(t) => write!(f, "{t:?}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_void() {
        assert!(Value::default().is_void());
    }

    #[test]
    fn conversions_preserve_payload() {
        assert_eq!(Value::from(5i64).as_i64(), Some(5));
        assert_eq!(Value::from(2.5f64).as_f64(), Some(2.5));
        assert_eq!(Value::from("hi").as_text(), Some("hi"));
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(Value::from(true).as_bool(), Some(true));
    }

    #[test]
    fn widening_conversions() {
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
        assert_eq!(Value::I64(4).as_f64(), Some(4.0));
        assert_eq!(Value::Text("x".into()).as_i64(), None);
    }

    #[test]
    fn expect_reports_type_mismatch() {
        let err = Value::Text("oops".into()).expect_i64().unwrap_err();
        match err {
            DynarError::TypeMismatch { expected, found } => {
                assert_eq!(expected, "i64");
                assert_eq!(found, "text");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn payload_size_accounts_for_nesting() {
        let v = Value::List(vec![Value::I64(1), Value::Bytes(vec![0; 10])]);
        assert_eq!(v.payload_size(), 8 + 10 + 2);
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::Void,
            Value::Bool(false),
            Value::I64(0),
            Value::F64(0.0),
            Value::Bytes(vec![]),
            Value::Text(String::new()),
            Value::List(vec![Value::I64(1), Value::I64(2)]),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(Value::Void.kind(), "void");
        assert_eq!(Value::List(vec![]).kind(), "list");
    }
}
