//! Function-behaviour deltas between time points: the paper's
//! `f+_{t,t+1}` and `f-_{t,t+1}` (Section 4, equations (6) and (7)).
//!
//! The tracker snapshots the results of a set of monitored calls at time
//! `t`; after the external domains change, [`DeltaTracker::delta`] reports
//! exactly which values appeared (`plus`) and disappeared (`minus`) per
//! call. The paper uses these sets to *analyse* the effect of external
//! updates on a `T_P`-materialized view (the `ADD`/`REM` sets); the `W_P`
//! strategy never needs them — which the `paper` binary's `external`
//! section measures.

use crate::manager::DomainManager;
use mmv_constraints::{DomainResolver, Value, ValueSet};
use std::collections::BTreeSet;

/// A monitored ground call.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroundCall {
    /// Domain name.
    pub domain: String,
    /// Function name.
    pub func: String,
    /// Ground arguments.
    pub args: Vec<Value>,
}

impl GroundCall {
    /// Builds a monitored call.
    pub fn new(domain: &str, func: &str, args: Vec<Value>) -> Self {
        GroundCall {
            domain: domain.to_string(),
            func: func.to_string(),
            args,
        }
    }
}

/// The behavioural difference of one call between two time points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallDelta {
    /// The call.
    pub call: GroundCall,
    /// `f_{t+1}(args) - f_t(args)` — values that appeared.
    pub plus: BTreeSet<Value>,
    /// `f_t(args) - f_{t+1}(args)` — values that disappeared.
    pub minus: BTreeSet<Value>,
}

impl CallDelta {
    /// Whether the behaviour changed at all.
    pub fn is_empty(&self) -> bool {
        self.plus.is_empty() && self.minus.is_empty()
    }
}

/// Snapshots monitored call results and computes deltas.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    snapshot: Vec<(GroundCall, Option<BTreeSet<Value>>)>,
}

/// Materializes a value set when finite (infinite symbolic sets — e.g.
/// `arith:great` ranges — cannot change behaviour, being pure).
fn materialize(set: &ValueSet, limit: usize) -> Option<BTreeSet<Value>> {
    set.enumerate(limit).map(|v| v.into_iter().collect())
}

impl DeltaTracker {
    /// Creates a tracker with no monitored calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the current results of `calls` against `manager`
    /// ("time t").
    pub fn snapshot(manager: &DomainManager, calls: Vec<GroundCall>) -> Self {
        let snapshot = calls
            .into_iter()
            .map(|c| {
                let set = manager.resolve(&c.domain, &c.func, &c.args);
                let mat = materialize(&set, 100_000);
                (c, mat)
            })
            .collect();
        DeltaTracker { snapshot }
    }

    /// Computes the per-call deltas between the snapshot time and now
    /// ("time t+1"). Calls whose results could not be finitely
    /// materialized are skipped (pure symbolic sets).
    pub fn delta(&self, manager: &DomainManager) -> Vec<CallDelta> {
        let mut out = Vec::new();
        for (call, old) in &self.snapshot {
            let Some(old) = old else { continue };
            let now = manager.resolve(&call.domain, &call.func, &call.args);
            let Some(new) = materialize(&now, 100_000) else {
                continue;
            };
            let plus: BTreeSet<Value> = new.difference(old).cloned().collect();
            let minus: BTreeSet<Value> = old.difference(&new).cloned().collect();
            out.push(CallDelta {
                call: call.clone(),
                plus,
                minus,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::face::FacePackage;
    use std::sync::Arc;

    #[test]
    fn photo_growth_shows_up_in_plus() {
        let pkg = FacePackage::new();
        pkg.add_photo("sv", "img1", &[7]);
        let mut m = DomainManager::new();
        m.register(Arc::new(pkg.extract_domain()));

        let call = GroundCall::new("facextract", "segmentface", vec![Value::str("sv")]);
        let tracker = DeltaTracker::snapshot(&m, vec![call]);

        pkg.add_photo("sv", "img2", &[9]);
        let deltas = tracker.delta(&m);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].plus.len(), 1);
        assert!(deltas[0].minus.is_empty());
    }

    #[test]
    fn photo_removal_shows_up_in_minus() {
        let pkg = FacePackage::new();
        pkg.add_photo("sv", "img1", &[7]);
        pkg.add_photo("sv", "img2", &[9]);
        let mut m = DomainManager::new();
        m.register(Arc::new(pkg.extract_domain()));

        let call = GroundCall::new("facextract", "segmentface", vec![Value::str("sv")]);
        let tracker = DeltaTracker::snapshot(&m, vec![call]);

        pkg.remove_photo("sv", "img1");
        let deltas = tracker.delta(&m);
        assert_eq!(deltas[0].minus.len(), 1);
        assert!(deltas[0].plus.is_empty());
    }

    #[test]
    fn unchanged_call_has_empty_delta() {
        let pkg = FacePackage::new();
        pkg.add_photo("sv", "img1", &[7]);
        let mut m = DomainManager::new();
        m.register(Arc::new(pkg.extract_domain()));
        let call = GroundCall::new("facextract", "segmentface", vec![Value::str("sv")]);
        let tracker = DeltaTracker::snapshot(&m, vec![call]);
        assert!(tracker.delta(&m)[0].is_empty());
    }
}
