//! E4 — External updates: the `W_P` zero-maintenance strategy vs `T_P`
//! recomputation (Section 4, Theorem 4, Corollary 1).
//!
//! Workload: a monitoring mediator over `N` sensors. Each round, one
//! sensor's readings change (an update of the second kind), then `q`
//! queries arrive. `T_P` pays a view rebuild per update; `W_P` pays
//! nothing on update but evaluates constraints at query time. The table
//! sweeps the query/update ratio to expose the crossover.
//!
//! Regenerate: `cargo run -p mmv-bench --release --bin e4_external`

use mmv_bench::harness::{
    banner, fmt_duration, json_path_from_args, timed, JsonReport, JsonRow, Table,
};
use mmv_bench::sensors::{monitoring_db, SensorDomain};
use mmv_constraints::SolverConfig;
use mmv_core::{MaintenanceStrategy, MediatedMaterializedView};
use mmv_domains::DomainManager;
use std::sync::Arc;
use std::time::Duration;

fn run_scenario(
    n_sensors: usize,
    updates: usize,
    queries_per_update: usize,
    strategy: MaintenanceStrategy,
) -> (Duration, Duration) {
    let sensors = Arc::new(SensorDomain::new(n_sensors));
    let mut manager = DomainManager::new();
    manager.register(sensors.clone());
    let db = monitoring_db(n_sensors, 50);
    let cfg = mmv_core::FixpointConfig::default();
    let mut mv =
        MediatedMaterializedView::materialize(db, strategy, &manager, manager.clock(), cfg)
            .expect("materialize");
    let scfg = SolverConfig::default();
    let mut maintenance = Duration::ZERO;
    let mut query_time = Duration::ZERO;
    for round in 0..updates {
        // External update: one sensor starts alerting.
        sensors.set(round % n_sensors, vec![40 + (round as i64 % 30), 90]);
        let ((), dt) = timed(|| {
            mv.on_external_change(&manager, manager.clock())
                .expect("maintenance");
        });
        maintenance += dt;
        for q in 0..queries_per_update {
            let target = (round + q) % n_sensors;
            let (res, dt) = timed(|| {
                mv.query(&format!("alert{target}"), &[None], &manager, &scfg)
                    .expect("query")
            });
            query_time += dt;
            std::hint::black_box(res);
        }
    }
    (maintenance, query_time)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = json_path_from_args();
    let claim =
        "Theorem 4: W_P views need no action on external change; Corollary 1: answers stay exact";
    banner(
        "E4: external updates — W_P (no maintenance) vs T_P (recompute)",
        claim,
    );
    let mut report = JsonReport::new("E4", claim);
    let n_sensors = if quick { 50 } else { 200 };
    let updates = if quick { 10 } else { 50 };
    let ratios: Vec<usize> = if quick {
        vec![0, 10]
    } else {
        vec![0, 1, 10, 100, 400]
    };
    let mut table = Table::new(&[
        "queries/update",
        "T_P maint",
        "T_P query",
        "T_P total",
        "W_P maint",
        "W_P query",
        "W_P total",
        "winner",
    ]);
    for &q in &ratios {
        let (tp_m, tp_q) = run_scenario(n_sensors, updates, q, MaintenanceStrategy::TpRecompute);
        let (wp_m, wp_q) = run_scenario(n_sensors, updates, q, MaintenanceStrategy::WpDeferred);
        let tp_total = tp_m + tp_q;
        let wp_total = wp_m + wp_q;
        table.row(vec![
            q.to_string(),
            fmt_duration(tp_m),
            fmt_duration(tp_q),
            fmt_duration(tp_total),
            fmt_duration(wp_m),
            fmt_duration(wp_q),
            fmt_duration(wp_total),
            if wp_total <= tp_total { "W_P" } else { "T_P" }.to_string(),
        ]);
        report.push(
            JsonRow::new()
                .int("queries_per_update", q as i64)
                .secs("tp_maintenance_s", tp_m)
                .secs("tp_query_s", tp_q)
                .secs("wp_maintenance_s", wp_m)
                .secs("wp_query_s", wp_q)
                .str("winner", if wp_total <= tp_total { "W_P" } else { "T_P" }),
        );
    }
    table.print();
    report.write_if(&json);
    println!();
    println!(
        "expected shape: W_P maintenance is ~0 regardless of update rate \
         (the paper's 'no action whatsoever'); T_P amortizes only when \
         queries vastly outnumber updates — and even then the memoizing \
         domain cache keeps W_P competitive."
    );
}
