//! Caching-strategy selection (Table 1 of the paper).
//!
//! The client-side datastore library picks a state-management strategy per
//! state object from its **scope** (per-flow vs. cross-flow) and **access
//! pattern** (write-mostly, read-heavy, read/write often):
//!
//! | Scope      | Access pattern           | Strategy                                  |
//! |------------|--------------------------|-------------------------------------------|
//! | any        | write mostly, read rarely| non-blocking ops, no caching               |
//! | per-flow   | any                      | cache, periodic non-blocking flush          |
//! | cross-flow | write rarely (read heavy)| cache with store callbacks                  |
//! | cross-flow | write/read often         | cache only while the traffic split gives the instance exclusive access; otherwise flush and operate on the store |

use chc_store::{AccessPattern, StateScope};

/// How the client-side library manages one state object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheStrategy {
    /// Offload updates with non-blocking semantics; never cache. Reads (rare)
    /// are served by the store after applying outstanding updates.
    NonBlockingNoCache,
    /// Cache at the owning instance; flush updates to the store with
    /// non-blocking semantics for fault tolerance (per-flow objects).
    CacheWithPeriodicFlush,
    /// Cache read-only copies; the store pushes callbacks on every update
    /// (read-heavy cross-flow objects).
    CacheWithCallbacks,
    /// Cache only while the upstream traffic split gives this instance
    /// exclusive access to the object; flush and fall back to store-side
    /// operations when sharing begins (write/read-often cross-flow objects).
    CacheIfExclusive,
}

impl CacheStrategy {
    /// Select the strategy for an object as per Table 1.
    pub fn select(scope: StateScope, access: AccessPattern) -> CacheStrategy {
        match (scope, access) {
            // Row 1: write-mostly / read-rarely objects of any scope.
            (_, AccessPattern::WriteMostlyReadRarely) => CacheStrategy::NonBlockingNoCache,
            // Row 2: per-flow objects.
            (StateScope::PerFlow, _) => CacheStrategy::CacheWithPeriodicFlush,
            // Row 3: read-heavy cross-flow objects.
            (StateScope::CrossFlow(_), AccessPattern::ReadMostly) => {
                CacheStrategy::CacheWithCallbacks
            }
            // Row 4: write/read-often cross-flow objects.
            (StateScope::CrossFlow(_), AccessPattern::ReadWriteOften) => {
                CacheStrategy::CacheIfExclusive
            }
        }
    }

    /// True if the strategy relies on store callbacks to keep caches fresh.
    pub fn uses_callbacks(&self) -> bool {
        matches!(self, CacheStrategy::CacheWithCallbacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_packet::Scope;

    #[test]
    fn table1_mapping() {
        use AccessPattern::*;
        use CacheStrategy::*;
        // Row 1: any scope, write mostly.
        assert_eq!(
            CacheStrategy::select(StateScope::PerFlow, WriteMostlyReadRarely),
            NonBlockingNoCache
        );
        assert_eq!(
            CacheStrategy::select(StateScope::CrossFlow(Scope::Global), WriteMostlyReadRarely),
            NonBlockingNoCache
        );
        // Row 2: per-flow, any other pattern.
        assert_eq!(
            CacheStrategy::select(StateScope::PerFlow, ReadMostly),
            CacheWithPeriodicFlush
        );
        assert_eq!(
            CacheStrategy::select(StateScope::PerFlow, ReadWriteOften),
            CacheWithPeriodicFlush
        );
        // Row 3: cross-flow read-heavy.
        assert_eq!(
            CacheStrategy::select(StateScope::CrossFlow(Scope::SrcIp), ReadMostly),
            CacheWithCallbacks
        );
        // Row 4: cross-flow write/read often.
        assert_eq!(
            CacheStrategy::select(StateScope::CrossFlow(Scope::SrcIp), ReadWriteOften),
            CacheIfExclusive
        );
    }

    #[test]
    fn strategy_properties() {
        assert!(CacheStrategy::CacheWithCallbacks.uses_callbacks());
        assert!(!CacheStrategy::CacheIfExclusive.uses_callbacks());
    }
}
