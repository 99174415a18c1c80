//! E7 — The law-enforcement mediator end-to-end (Example 1 / Figure 1):
//! surveillance data grows, and the suspect view must keep up.
//!
//! Paper claim (§3 "External Data Changes" + §4): modelling local-database
//! changes as function updates lets `W_P` maintain the mediated view with
//! no action, while `T_P` recomputes. This experiment drives the full
//! five-domain mediator: each round adds surveillance photos and then
//! runs the paper's headline query ("who are Don's suspects?").
//!
//! Regenerate: `cargo run -p mmv-bench --release --bin e7_lawenf`

use mmv_bench::gen::lawenf::{build, LawEnfSpec};
use mmv_bench::harness::{
    banner, fmt_duration, json_path_from_args, timed, JsonReport, JsonRow, Table,
};
use mmv_constraints::{SolverConfig, Value};
use mmv_core::{FixpointConfig, MaintenanceStrategy, MediatedMaterializedView};
use std::time::Duration;

fn run(
    spec: &LawEnfSpec,
    rounds: usize,
    photos_per_round: usize,
    strategy: MaintenanceStrategy,
) -> (Duration, Duration, usize) {
    let world = build(spec);
    let cfg = FixpointConfig::default();
    let mut mv = MediatedMaterializedView::materialize(
        world.db.clone(),
        strategy,
        &world.manager,
        world.manager.clock(),
        cfg,
    )
    .expect("materialize");
    let scfg = SolverConfig {
        product_budget: 5_000_000,
        ..SolverConfig::default()
    };
    let mut maintenance = Duration::ZERO;
    let mut query_time = Duration::ZERO;
    let mut suspects = 0usize;
    for round in 0..rounds {
        for p in 0..photos_per_round {
            // New photos always show the target with one other person.
            let companion = 2 + ((round * photos_per_round + p) % (spec.people - 2)) as u64;
            world.face.add_photo(
                "surveillancedata",
                &format!("new_{round}_{p}"),
                &[1, companion],
            );
        }
        let ((), dt) = timed(|| {
            mv.on_external_change(&world.manager, world.manager.clock())
                .expect("maintenance");
        });
        maintenance += dt;
        let (res, dt) = timed(|| {
            mv.query(
                "suspect",
                &[Some(Value::str(&world.target)), None],
                &world.manager,
                &scfg,
            )
            .expect("query")
        });
        query_time += dt;
        suspects = res.len();
    }
    (maintenance, query_time, suspects)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = json_path_from_args();
    let claim =
        "photo-set growth = external function update; W_P maintains for free, T_P recomputes";
    banner(
        "E7: law-enforcement mediator under surveillance growth (Example 1)",
        claim,
    );
    let mut report = JsonReport::new("E7", claim);
    let spec = LawEnfSpec {
        people: if quick { 8 } else { 16 },
        photos: if quick { 4 } else { 10 },
        faces_per_photo: 3,
        near_dc_fraction: 0.75,
        employee_fraction: 0.75,
        seed: 0xE7,
    };
    let rounds = if quick { 3 } else { 8 };
    let mut table = Table::new(&[
        "strategy",
        "rounds",
        "photos/round",
        "maintenance",
        "query",
        "total",
        "final suspects",
    ]);
    for (name, strategy) in [
        ("T_P recompute", MaintenanceStrategy::TpRecompute),
        ("W_P deferred", MaintenanceStrategy::WpDeferred),
    ] {
        let (m, q, suspects) = run(&spec, rounds, 2, strategy);
        table.row(vec![
            name.to_string(),
            rounds.to_string(),
            "2".to_string(),
            fmt_duration(m),
            fmt_duration(q),
            fmt_duration(m + q),
            suspects.to_string(),
        ]);
        report.push(
            JsonRow::new()
                .str("strategy", name)
                .int("rounds", rounds as i64)
                .int("photos_per_round", 2)
                .secs("maintenance_s", m)
                .secs("query_s", q)
                .int("final_suspects", suspects as i64),
        );
    }
    table.print();
    report.write_if(&json);
    println!();
    println!(
        "expected shape: identical suspect counts (Corollary 1); W_P \
         maintenance ~0; query times comparable (both evaluate domain \
         calls at query time through the memo cache)."
    );
}
