//! Offloadable state operations (Table 2 of the paper).
//!
//! In CHC an NF instance does not read-modify-write shared state under a
//! lock; it sends the *operation* to the datastore, which serializes and
//! applies operations from all instances in the background (§4.3,
//! "Offloading operations"). Developers can also register custom operations.

use crate::error::StoreError;
use crate::key::StateKey;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Predicate used by [`Operation::CompareAndUpdate`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Condition {
    /// Current value equals the given value.
    Equals(Value),
    /// Current integer value is strictly less than the given bound.
    LessThan(i64),
    /// Current integer value is strictly greater than the given bound.
    GreaterThan(i64),
    /// No value is stored yet (or it is [`Value::None`]).
    Absent,
}

impl Condition {
    /// Evaluate the predicate against the current value.
    pub fn eval(&self, current: &Value) -> bool {
        match self {
            Condition::Equals(v) => current == v,
            Condition::LessThan(b) => current.as_int() < *b,
            Condition::GreaterThan(b) => current.as_int() > *b,
            Condition::Absent => current.is_none(),
        }
    }
}

/// An operation an NF offloads to the datastore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Operation {
    /// Read the current value.
    Get,
    /// Overwrite the value.
    Set(Value),
    /// Remove the value; returns the previous value.
    Delete,
    /// Increment the integer value by the given amount (Table 2 row 1).
    Increment(i64),
    /// Decrement the integer value by the given amount (Table 2 row 1).
    Decrement(i64),
    /// Add to both components of a [`Value::Pair`].
    AddPair(i64, i64),
    /// Push a value to the back of the list stored at the key (Table 2 row 2).
    PushBack(Value),
    /// Push a value to the front of the list.
    PushFront(Value),
    /// Pop a value from the front of the list; returns the popped value.
    PopFront,
    /// Pop a value from the back of the list; returns the popped value.
    PopBack,
    /// If the condition holds, set the value (Table 2 row 3). Returns the
    /// value after the operation (updated or not).
    CompareAndUpdate {
        /// Predicate evaluated against the current value.
        condition: Condition,
        /// Value written when the predicate holds.
        new: Value,
    },
    /// A developer-registered custom operation, looked up by name in the
    /// store's custom-operation registry, with an argument value.
    Custom {
        /// Registered operation name.
        name: String,
        /// Operation argument.
        arg: Value,
    },
}

impl Operation {
    /// True if the operation only observes state (no mutation).
    pub fn is_read_only(&self) -> bool {
        matches!(self, Operation::Get)
    }

    /// True if the operation can be issued with non-blocking semantics: the
    /// NF does not need the returned value to continue processing. Reads and
    /// pops return data the NF typically consumes, so they block.
    pub fn is_non_blocking_eligible(&self) -> bool {
        !matches!(
            self,
            Operation::Get | Operation::PopFront | Operation::PopBack
        )
    }

    /// Short mnemonic used in logs and reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Operation::Get => "get",
            Operation::Set(_) => "set",
            Operation::Delete => "del",
            Operation::Increment(_) => "incr",
            Operation::Decrement(_) => "decr",
            Operation::AddPair(_, _) => "addpair",
            Operation::PushBack(_) => "pushb",
            Operation::PushFront(_) => "pushf",
            Operation::PopFront => "popf",
            Operation::PopBack => "popb",
            Operation::CompareAndUpdate { .. } => "cau",
            Operation::Custom { .. } => "custom",
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// Result of applying an operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpOutcome {
    /// Value returned to the requesting instance (for `Get`/`Pop*` this is
    /// the read/popped value; for updates it is the post-update value).
    pub returned: Value,
    /// True when the store *emulated* the operation because an update with
    /// the same (key, clock) had already been applied — the duplicate
    /// suppression mechanism of §5.3.
    pub emulated: bool,
}

impl OpOutcome {
    /// Outcome of a freshly applied operation.
    pub fn applied(returned: Value) -> OpOutcome {
        OpOutcome {
            returned,
            emulated: false,
        }
    }

    /// Outcome replayed from the duplicate-suppression log.
    pub fn emulated(returned: Value) -> OpOutcome {
        OpOutcome {
            returned,
            emulated: true,
        }
    }
}

/// Signature of a registered custom operation: given the current value and an
/// argument, produce `(new_value, returned_value)`.
pub type CustomOpFn = fn(&Value, &Value) -> (Value, Value);

/// Resolver mapping a custom-operation name to its registered function.
pub type CustomOpResolver<'a> = &'a dyn Fn(&str) -> Option<CustomOpFn>;

/// Apply `op` to the stored `value` in place. Returns the value handed back
/// to the caller and whether the stored value changed (what decides callback
/// notifications). On error `value` is untouched.
///
/// This is the single place where operation semantics are defined; the
/// store, the client-side cache and [`apply_operation`] all go through it.
/// List operations mutate the list where it lies, so in this function a pop
/// on a long pool costs a pop, not a copy of the pool; whether the object is
/// copied afterwards is the caller's affair (the store copies it only for
/// callback subscribers, [`crate::store::ApplyResult::new_value`]). `key` is
/// called only to name the object in an error, so a caller that holds no key
/// builds none otherwise.
pub fn apply_in_place(
    key: impl FnOnce() -> StateKey,
    value: &mut Value,
    op: &Operation,
    custom: Option<CustomOpResolver<'_>>,
) -> Result<(Value, bool), StoreError> {
    // Scalar results are built first and compared against the stored value;
    // list operations know whether they changed anything without comparing.
    let replace = |value: &mut Value, new: Value| {
        let changed = *value != new;
        *value = new;
        changed
    };
    Ok(match op {
        Operation::Get => (value.clone(), false),
        Operation::Set(v) => {
            let changed = replace(value, v.clone());
            (v.clone(), changed)
        }
        Operation::Delete => {
            let changed = !value.is_none();
            (std::mem::take(value), changed)
        }
        Operation::Increment(d) => {
            let v = Value::Int(value.as_int() + d);
            let changed = replace(value, v.clone());
            (v, changed)
        }
        Operation::Decrement(d) => {
            let v = Value::Int(value.as_int() - d);
            let changed = replace(value, v.clone());
            (v, changed)
        }
        Operation::AddPair(a, b) => {
            let (x, y) = value.as_pair();
            let v = Value::Pair(x + a, y + b);
            let changed = replace(value, v.clone());
            (v, changed)
        }
        Operation::PushBack(item) => {
            let list = list_mut(key, value, "push")?;
            list.push_back(item.clone());
            (Value::Int(list.len() as i64), true)
        }
        Operation::PushFront(item) => {
            let list = list_mut(key, value, "push")?;
            list.push_front(item.clone());
            (Value::Int(list.len() as i64), true)
        }
        Operation::PopFront => {
            // A pop on a missing value leaves an empty list behind.
            let created = value.is_none();
            let popped = list_mut(key, value, "pop")?.pop_front();
            let changed = created || popped.is_some();
            (popped.unwrap_or(Value::None), changed)
        }
        Operation::PopBack => {
            let created = value.is_none();
            let popped = list_mut(key, value, "pop")?.pop_back();
            let changed = created || popped.is_some();
            (popped.unwrap_or(Value::None), changed)
        }
        Operation::CompareAndUpdate { condition, new } => {
            let changed = condition.eval(value) && replace(value, new.clone());
            (value.clone(), changed)
        }
        Operation::Custom { name, arg } => {
            let f = custom
                .and_then(|resolve| resolve(name))
                .ok_or_else(|| StoreError::UnknownCustomOp(name.clone()))?;
            let (new, returned) = f(value, arg);
            let changed = replace(value, new);
            (returned, changed)
        }
    })
}

/// Apply `op` to `current`, producing the new stored value and the value to
/// return to the caller, leaving `current` alone (see [`apply_in_place`]).
pub fn apply_operation(
    key: &StateKey,
    current: &Value,
    op: &Operation,
    custom: Option<CustomOpResolver<'_>>,
) -> Result<(Value, Value), StoreError> {
    let mut value = current.clone();
    let (returned, _) = apply_in_place(|| key.clone(), &mut value, op, custom)?;
    Ok((value, returned))
}

/// The list stored at `value`, turning a missing value into an empty list.
fn list_mut<'v>(
    key: impl FnOnce() -> StateKey,
    value: &'v mut Value,
    op: &'static str,
) -> Result<&'v mut VecDeque<Value>, StoreError> {
    if value.is_none() {
        *value = Value::List(VecDeque::new());
    }
    match value {
        Value::List(list) => Ok(list),
        _ => Err(StoreError::TypeMismatch { key: key(), op }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{ObjectKey, StateKey, VertexId};

    fn key() -> StateKey {
        StateKey::shared(VertexId(0), ObjectKey::named("x"))
    }

    fn apply(current: &Value, op: Operation) -> (Value, Value) {
        apply_operation(&key(), current, &op, None).unwrap()
    }

    #[test]
    fn increment_decrement() {
        let (v, r) = apply(&Value::None, Operation::Increment(3));
        assert_eq!(v, Value::Int(3));
        assert_eq!(r, Value::Int(3));
        let (v, _) = apply(&v, Operation::Decrement(1));
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn add_pair() {
        let (v, _) = apply(&Value::None, Operation::AddPair(1, 2));
        let (v, r) = apply(&v, Operation::AddPair(0, 3));
        assert_eq!(v, Value::Pair(1, 5));
        assert_eq!(r, Value::Pair(1, 5));
    }

    #[test]
    fn push_pop_round_trip() {
        let (v, len) = apply(&Value::None, Operation::PushBack(Value::Int(10)));
        assert_eq!(len, Value::Int(1));
        let (v, _) = apply(&v, Operation::PushBack(Value::Int(20)));
        let (v, popped) = apply(&v, Operation::PopFront);
        assert_eq!(popped, Value::Int(10));
        let (v, popped) = apply(&v, Operation::PopBack);
        assert_eq!(popped, Value::Int(20));
        let (_, popped) = apply(&v, Operation::PopFront);
        assert_eq!(popped, Value::None);
    }

    #[test]
    fn push_to_non_list_is_type_mismatch() {
        let err = apply_operation(
            &key(),
            &Value::Int(1),
            &Operation::PushBack(Value::Int(2)),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch { .. }));
    }

    #[test]
    fn compare_and_update() {
        // set only if absent — the paper's "compare and update".
        let op = Operation::CompareAndUpdate {
            condition: Condition::Absent,
            new: Value::Int(7),
        };
        let (v, _) = apply(&Value::None, op.clone());
        assert_eq!(v, Value::Int(7));
        let (v, _) = apply(&v, op);
        assert_eq!(v, Value::Int(7)); // unchanged: condition false
        let op = Operation::CompareAndUpdate {
            condition: Condition::GreaterThan(5),
            new: Value::Int(0),
        };
        let (v, _) = apply(&v, op);
        assert_eq!(v, Value::Int(0));
        assert!(Condition::LessThan(1).eval(&Value::Int(0)));
        assert!(Condition::Equals(Value::Int(0)).eval(&Value::Int(0)));
    }

    #[test]
    fn get_set_delete() {
        let (v, r) = apply(&Value::None, Operation::Set(Value::Int(5)));
        assert_eq!(v, Value::Int(5));
        assert_eq!(r, Value::Int(5));
        let (_, r) = apply(&v, Operation::Get);
        assert_eq!(r, Value::Int(5));
        let (v, r) = apply(&v, Operation::Delete);
        assert_eq!(v, Value::None);
        assert_eq!(r, Value::Int(5));
    }

    #[test]
    fn custom_ops_resolution() {
        fn max_op(current: &Value, arg: &Value) -> (Value, Value) {
            let v = Value::Int(current.as_int().max(arg.as_int()));
            (v.clone(), v)
        }
        let resolver = |name: &str| -> Option<CustomOpFn> {
            if name == "max" {
                Some(max_op)
            } else {
                None
            }
        };
        let op = Operation::Custom {
            name: "max".into(),
            arg: Value::Int(9),
        };
        let (v, _) = apply_operation(&key(), &Value::Int(4), &op, Some(&resolver)).unwrap();
        assert_eq!(v, Value::Int(9));
        let unknown = Operation::Custom {
            name: "nope".into(),
            arg: Value::None,
        };
        assert!(matches!(
            apply_operation(&key(), &Value::None, &unknown, Some(&resolver)),
            Err(StoreError::UnknownCustomOp(_))
        ));
    }

    #[test]
    fn blocking_classification() {
        assert!(Operation::Increment(1).is_non_blocking_eligible());
        assert!(Operation::Set(Value::Int(1)).is_non_blocking_eligible());
        assert!(!Operation::Get.is_non_blocking_eligible());
        assert!(!Operation::PopFront.is_non_blocking_eligible());
        assert!(Operation::Get.is_read_only());
        assert!(!Operation::Increment(1).is_read_only());
    }
}
