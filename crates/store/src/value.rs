//! Values stored in the datastore.

use std::collections::VecDeque;
use std::fmt;

/// A value stored at a datastore key.
///
/// The paper's datastore stores small values (its microbenchmark uses 64-bit
/// values); NFs in this reproduction additionally store lists (e.g. the NAT's
/// free-port pool) and small byte blobs (opaque per-flow records).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Value {
    /// Absent / uninitialised.
    #[default]
    None,
    /// A signed 64-bit integer (counters, likelihood scores scaled by 1e6, …).
    Int(i64),
    /// An ordered list of values (free port pools, pending events, …).
    List(VecDeque<Value>),
    /// A small opaque byte string (serialized per-flow records).
    Bytes(Vec<u8>),
    /// A pair of integers (e.g. connection counts per host: attempts/failures).
    Pair(i64, i64),
}

impl Value {
    /// Interpret as integer, defaulting missing values to 0.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::None => 0,
            Value::Pair(a, _) => *a,
            _ => 0,
        }
    }

    /// Interpret as a pair, defaulting to zeros.
    pub fn as_pair(&self) -> (i64, i64) {
        match self {
            Value::Pair(a, b) => (*a, *b),
            Value::Int(v) => (*v, 0),
            _ => (0, 0),
        }
    }

    /// Borrow the list contents if this value is a list.
    pub fn as_list(&self) -> Option<&VecDeque<Value>> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Borrow the bytes if this is a byte value.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// True if this is [`Value::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, Value::None)
    }

    /// Build a list value from integers.
    pub fn list_of_ints<I: IntoIterator<Item = i64>>(items: I) -> Value {
        Value::List(items.into_iter().map(Value::Int).collect())
    }

    /// Approximate size in bytes of the stored value (used for store memory
    /// accounting in reports).
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::None => 0,
            Value::Int(_) => 8,
            Value::Pair(_, _) => 16,
            Value::Bytes(b) => b.len(),
            Value::List(l) => l.iter().map(|v| v.size_bytes()).sum::<usize>() + 8,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i64)
    }
}

impl From<(i64, i64)> for Value {
    fn from(v: (i64, i64)) -> Value {
        Value::Pair(v.0, v.1)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Value {
        Value::Bytes(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::None => write!(f, "none"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Pair(a, b) => write!(f, "({a},{b})"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::List(l) => write!(f, "list[{}]", l.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_accessors() {
        assert_eq!(Value::from(5i64).as_int(), 5);
        assert_eq!(Value::from(7u64).as_int(), 7);
        assert_eq!(Value::None.as_int(), 0);
        assert_eq!(Value::from((3, 4)).as_pair(), (3, 4));
        assert_eq!(Value::Int(9).as_pair(), (9, 0));
        let l = Value::list_of_ints([1, 2, 3]);
        assert_eq!(l.as_list().unwrap().len(), 3);
        assert!(Value::None.is_none());
        assert!(Value::Bytes(vec![1, 2]).as_bytes().is_some());
        assert!(Value::Int(1).as_bytes().is_none());
    }

    #[test]
    fn sizes() {
        assert_eq!(Value::Int(1).size_bytes(), 8);
        assert_eq!(Value::Pair(1, 2).size_bytes(), 16);
        assert_eq!(Value::Bytes(vec![0; 10]).size_bytes(), 10);
        assert_eq!(Value::list_of_ints([1, 2]).size_bytes(), 24);
        assert_eq!(Value::None.size_bytes(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(4).to_string(), "4");
        assert_eq!(Value::Pair(1, 2).to_string(), "(1,2)");
        assert_eq!(Value::list_of_ints([1]).to_string(), "list[1]");
    }
}
