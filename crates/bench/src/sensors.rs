//! A synthetic "sensor network" domain for the `paper` binary's
//! `external` section: `N` independent sensors whose readings change over
//! time. Each update to a sensor is an external change of the second
//! kind — exactly the event Section 4's `W_P` strategy handles for free.
//!
//! This module also demonstrates how downstream users extend the system
//! with their own [`Domain`] implementations.

use mmv_constraints::{Value, ValueSet};
use mmv_domains::Domain;
use mmv_obs::sync::{read_clean, write_clean};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// The `sensors` domain: `sensors:read(i)` returns the current readings
/// of sensor `i` (a small set of integers).
pub struct SensorDomain {
    readings: RwLock<Vec<Vec<i64>>>,
    version: AtomicU64,
}

impl SensorDomain {
    /// Creates `n` sensors, each with one initial reading `i`.
    pub fn new(n: usize) -> Self {
        SensorDomain {
            readings: RwLock::new((0..n).map(|i| vec![i as i64]).collect()),
            version: AtomicU64::new(0),
        }
    }

    /// Overwrites sensor `i`'s readings (an external update).
    pub fn set(&self, i: usize, values: Vec<i64>) {
        let mut r = write_clean(&self.readings);
        if let Some(slot) = r.get_mut(i) {
            *slot = values;
            self.version.fetch_add(1, Ordering::Relaxed); // order: the RwLock write guard orders the data; the version only needs atomicity
        }
    }
}

impl Domain for SensorDomain {
    fn name(&self) -> &str {
        "sensors"
    }

    fn call(&self, func: &str, args: &[Value]) -> ValueSet {
        match func {
            "read" => {
                let Some(i) = args.first().and_then(|v| v.as_int()) else {
                    return ValueSet::Empty;
                };
                let r = read_clean(&self.readings);
                match usize::try_from(i).ok().and_then(|i| r.get(i)) {
                    Some(vals) => ValueSet::finite(vals.iter().map(|&v| Value::Int(v))),
                    None => ValueSet::Empty,
                }
            }
            _ => ValueSet::Empty,
        }
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed) // order: advisory staleness check; the RwLock orders the data it guards
    }

    fn functions(&self) -> Vec<&'static str> {
        vec!["read"]
    }
}

/// Builds the monitoring mediator over `n` sensors:
/// `alert_i(X) <- in(X, sensors:read(i)) & X >= threshold` for each i.
pub fn monitoring_db(n: usize, threshold: i64) -> mmv_core::ConstrainedDatabase {
    use mmv_constraints::{Call, CmpOp, Constraint, Term, Var};
    use mmv_core::{Clause, ConstrainedDatabase};
    let x = Term::var(Var(0));
    let mut db = ConstrainedDatabase::new();
    for i in 0..n {
        db.push(Clause::fact(
            &format!("alert{i}"),
            vec![x.clone()],
            Constraint::member(
                x.clone(),
                Call::new("sensors", "read", vec![Term::int(i as i64)]),
            )
            .and(Constraint::cmp(x.clone(), CmpOp::Ge, Term::int(threshold))),
        ));
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::SolverConfig;
    use mmv_core::{fixpoint, FixpointConfig, Operator, SupportMode};
    use mmv_domains::DomainManager;
    use std::sync::Arc;

    #[test]
    fn sensor_updates_bump_version_and_change_reads() {
        let s = SensorDomain::new(3);
        let v0 = s.version();
        assert_eq!(
            s.call("read", &[Value::int(1)]),
            ValueSet::finite([Value::int(1)])
        );
        s.set(1, vec![100, 200]);
        assert!(s.version() > v0);
        assert_eq!(
            s.call("read", &[Value::int(1)]),
            ValueSet::finite([Value::int(100), Value::int(200)])
        );
    }

    #[test]
    fn poisoned_sensor_lock_recovers() {
        let s = Arc::new(SensorDomain::new(2));
        let s2 = s.clone();
        // Poison the RwLock by panicking while holding the write guard.
        let _ = std::thread::spawn(move || {
            let _g = write_clean(&s2.readings);
            panic!("poison the sensor lock");
        })
        .join();
        // Reads and writes keep working: the poison is cleared, not
        // propagated.
        assert_eq!(
            s.call("read", &[Value::int(1)]),
            ValueSet::finite([Value::int(1)])
        );
        s.set(0, vec![42]);
        assert_eq!(
            s.call("read", &[Value::int(0)]),
            ValueSet::finite([Value::int(42)])
        );
    }

    #[test]
    fn tp_prunes_below_threshold_wp_retains() {
        let sensors = Arc::new(SensorDomain::new(4));
        let mut m = DomainManager::new();
        m.register(sensors.clone());
        let db = monitoring_db(4, 10); // initial readings all < 10
        let cfg = FixpointConfig::default();
        let (tp, _) = fixpoint(&db, &m, Operator::Tp, SupportMode::WithSupports, &cfg).unwrap();
        assert_eq!(tp.len(), 0, "all alerts unsolvable at build time");
        let (wp, _) = fixpoint(&db, &m, Operator::Wp, SupportMode::WithSupports, &cfg).unwrap();
        assert_eq!(wp.len(), 4, "W_P keeps all syntactic entries");
        // After an external update, the W_P view answers correctly with
        // no maintenance at all.
        sensors.set(2, vec![50]);
        let hits = wp
            .query("alert2", &[None], &m, &SolverConfig::default())
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits.iter().next().unwrap()[0], Value::int(50));
        // The stale T_P view cannot (it pruned the entry away) — this is
        // the recomputation W_P eliminates.
        let stale = tp
            .query("alert2", &[None], &m, &SolverConfig::default())
            .unwrap();
        assert!(stale.is_empty());
    }
}
