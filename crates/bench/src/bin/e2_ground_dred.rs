//! E2 — Ground specialization: the constrained Extended DRed vs the
//! ground DRed of Gupta–Mumick–Subrahmanian \[22\].
//!
//! Paper claim (§1 item 2): the constrained framework subsumes the
//! unconstrained case. This experiment (a) verifies both engines compute
//! identical results on ground programs, and (b) measures the overhead
//! the constraint machinery pays for that generality.
//!
//! Regenerate: `cargo run -p mmv-bench --release --bin e2_ground_dred`

use mmv_bench::gen::ground::{ground_to_constrained, random_edges, two_hop_program, GraphSpec};
use mmv_bench::harness::{
    banner, fmt_duration, json_path_from_args, median_time, JsonReport, JsonRow, Table,
};
use mmv_constraints::{NoDomains, Value};
use mmv_core::{dred_delete, fixpoint, FixpointConfig, Operator, SupportMode};
use mmv_datalog::{evaluate, Fact};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = json_path_from_args();
    let claim =
        "the constrained algorithm specializes to ground DRed; overhead = price of constraint generality";
    banner(
        "E2: ground DRed vs constrained Extended DRed (two-hop paths)",
        claim,
    );
    let mut report = JsonReport::new("E2", claim);
    let sweeps: Vec<(usize, usize)> = if quick {
        vec![(20, 40)]
    } else {
        vec![(20, 40), (40, 80), (60, 160), (80, 240)]
    };
    let runs = if quick { 3 } else { 5 };
    let mut table = Table::new(&[
        "nodes",
        "edges",
        "ground facts",
        "ground DRed",
        "constrained DRed",
        "overhead",
    ]);
    for (nodes, edges) in sweeps {
        let spec = GraphSpec {
            nodes,
            edges,
            seed: 0xE2,
        };
        let edge_list = random_edges(&spec);
        let program = two_hop_program(&edge_list);
        let materialized = evaluate(&program);
        let victim = Fact::new(
            "edge",
            vec![Value::Int(edge_list[0].0), Value::Int(edge_list[0].1)],
        );

        let t_ground = median_time(1, runs, || {
            let (_, _) = mmv_datalog::apply_update(
                &program,
                &materialized,
                std::slice::from_ref(&victim),
                &[],
            );
        });

        let cdb = ground_to_constrained(&program);
        let cfg = FixpointConfig::default();
        let (plain, _) =
            fixpoint(&cdb, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg).expect("fixpoint");
        let deletion = mmv_core::ConstrainedAtom::fact(
            "edge",
            vec![Value::Int(edge_list[0].0), Value::Int(edge_list[0].1)],
        );
        // Correctness: the two engines agree after the deletion.
        {
            let (ground_after, _) = mmv_datalog::apply_update(
                &program,
                &materialized,
                std::slice::from_ref(&victim),
                &[],
            );
            let mut v = plain.clone();
            dred_delete(&cdb, &mut v, &deletion, &NoDomains, &cfg).expect("dred");
            let ci = v.instances(&NoDomains, &cfg.solver).expect("instances");
            let gset: std::collections::BTreeSet<(String, Vec<Value>)> = ground_after
                .facts()
                .map(|f| (f.pred.to_string(), f.args))
                .collect();
            let cset: std::collections::BTreeSet<(String, Vec<Value>)> =
                ci.into_iter().map(|(p, t)| (p.to_string(), t)).collect();
            assert_eq!(gset, cset, "engines disagree on ground deletion");
        }
        let t_constrained = median_time(1, runs, || {
            let mut v = plain.clone();
            dred_delete(&cdb, &mut v, &deletion, &NoDomains, &cfg).expect("dred");
        });
        table.row(vec![
            nodes.to_string(),
            edge_list.len().to_string(),
            materialized.len().to_string(),
            fmt_duration(t_ground),
            fmt_duration(t_constrained),
            format!(
                "{:.1}x",
                t_constrained.as_secs_f64() / t_ground.as_secs_f64().max(1e-9)
            ),
        ]);
        report.push(
            JsonRow::new()
                .int("nodes", nodes as i64)
                .int("edges", edge_list.len() as i64)
                .int("ground_facts", materialized.len() as i64)
                .secs("ground_dred_s", t_ground)
                .secs("constrained_dred_s", t_constrained),
        );
    }
    table.print();
    report.write_if(&json);
    println!();
    println!(
        "expected shape: identical results (asserted); the constrained \
         engine pays a constant-factor overhead for constraint solving."
    );
}
