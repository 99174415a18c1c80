//! Section 4 in action: external domains change; the `W_P` view needs
//! *no maintenance whatsoever* while staying exactly as accurate as a
//! freshly rebuilt `T_P` view (Theorem 4 + Corollary 1).
//!
//! Run with: `cargo run --example external_updates`

#![allow(
    clippy::disallowed_methods,
    reason = "the example times the two maintenance strategies"
)]

use mmv::constraints::SolverConfig;
use mmv::core::{FixpointConfig, MaintenanceStrategy, MediatedMaterializedView};
use mmv::domains::DomainManager;
use mmv_bench::sensors::{monitoring_db, SensorDomain};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A monitoring mediator: alert_i(X) <- in(X, sensors:read(i)) & X >= 50.
    let n = 64;
    let sensors = Arc::new(SensorDomain::new(n));
    let mut manager = DomainManager::new();
    manager.register(sensors.clone());
    let db = monitoring_db(n, 50);

    let cfg = FixpointConfig::default();
    let mut tp = MediatedMaterializedView::materialize(
        db.clone(),
        MaintenanceStrategy::TpRecompute,
        &manager,
        manager.clock(),
        cfg.clone(),
    )
    .expect("materialize T_P");
    let mut wp = MediatedMaterializedView::materialize(
        db,
        MaintenanceStrategy::WpDeferred,
        &manager,
        manager.clock(),
        cfg,
    )
    .expect("materialize W_P");
    println!(
        "initial views: T_P holds {} entries (all readings below threshold \
         were pruned), W_P holds {} syntactic entries",
        tp.view().len(),
        wp.view().len()
    );

    // A storm of external updates.
    let updates = 200;
    let start = Instant::now();
    for k in 0..updates {
        sensors.set(k % n, vec![30 + (k as i64 % 40), 77]);
        tp.on_external_change(&manager, manager.clock())
            .expect("tp maintenance");
    }
    let tp_time = start.elapsed();

    for k in 0..updates {
        sensors.set(k % n, vec![35 + (k as i64 % 40), 77]);
    }
    let start = Instant::now();
    for _ in 0..updates {
        wp.on_external_change(&manager, manager.clock())
            .expect("wp maintenance");
    }
    let wp_time = start.elapsed();

    println!(
        "{updates} external updates: T_P maintenance {:?}, W_P maintenance {:?} \
         ({}x)",
        tp_time,
        wp_time,
        (tp_time.as_nanos() / wp_time.as_nanos().max(1))
    );

    // Corollary 1: answers agree exactly, at any time, with no W_P work.
    let scfg = SolverConfig::default();
    let mut checked = 0;
    for i in 0..n {
        let pred = format!("alert{i}");
        let a = tp.query(&pred, &[None], &manager, &scfg).expect("tp query");
        let b = wp.query(&pred, &[None], &manager, &scfg).expect("wp query");
        assert_eq!(a, b, "answers diverged on {pred}");
        checked += a.len();
    }
    println!(
        "all {n} alert predicates agree between the maintained T_P view and \
         the untouched W_P view ({checked} alert instances) — Corollary 1 holds."
    );
}
