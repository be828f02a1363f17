//! Error type for store operations.

use crate::key::{InstanceId, StateKey};
use std::fmt;

/// Errors returned by the datastore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The object is owned by another instance; per-flow objects may only be
    /// updated by the instance recorded in their metadata (§4.3). The current
    /// owner is reported so callers can register for a handover notification.
    NotOwner {
        /// Key that was accessed.
        key: StateKey,
        /// Instance that attempted the access.
        requester: InstanceId,
        /// Instance currently recorded as owner (if any).
        owner: Option<InstanceId>,
    },
    /// The key does not exist and the operation requires it to.
    Missing(StateKey),
    /// The operation is not applicable to the value stored at the key
    /// (e.g. popping from an integer).
    TypeMismatch {
        /// Key that was accessed.
        key: StateKey,
        /// Operation name.
        op: &'static str,
    },
    /// A custom operation name was not registered.
    UnknownCustomOp(String),
    /// The store instance has failed (fail-stop) and cannot serve requests.
    Unavailable,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotOwner {
                key,
                requester,
                owner,
            } => write!(
                f,
                "instance {requester} is not the owner of {key} (owner: {owner:?})"
            ),
            StoreError::Missing(k) => write!(f, "no value stored at {k}"),
            StoreError::TypeMismatch { key, op } => {
                write!(f, "operation {op} not applicable to value at {key}")
            }
            StoreError::UnknownCustomOp(name) => write!(f, "unknown custom operation {name:?}"),
            StoreError::Unavailable => write!(f, "store instance unavailable"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{ObjectKey, StateKey, VertexId};

    #[test]
    fn display_messages() {
        let key = StateKey::shared(VertexId(1), ObjectKey::named("pkt_count"));
        let e = StoreError::Missing(key.clone());
        assert!(e.to_string().contains("pkt_count"));
        let e = StoreError::TypeMismatch { key, op: "pop" };
        assert!(e.to_string().contains("pop"));
        assert!(StoreError::Unavailable.to_string().contains("unavailable"));
        assert!(StoreError::UnknownCustomOp("x".into())
            .to_string()
            .contains('x'));
    }
}
