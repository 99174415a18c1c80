//! E3 — Insertion maintenance: Algorithm 3 vs full recomputation.
//!
//! Paper claim (§3.2, Theorem 3): insertions propagate incrementally
//! through `P_ADD`; only derivations touching the new atoms are built.
//!
//! Regenerate: `cargo run -p mmv-bench --release --bin e3_insertion`

use mmv_bench::gen::constrained::{layered_program, random_insertion, LayeredSpec};
use mmv_bench::harness::{
    banner, fmt_duration, json_path_from_args, median_time, JsonReport, JsonRow, Table,
};
use mmv_constraints::NoDomains;
use mmv_core::{
    fixpoint, insert_atom, insert_batch, Clause, FixpointConfig, Operator, SupportMode,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = json_path_from_args();
    let claim = "P_ADD propagation touches only the new derivations (paper §3.2)";
    banner("E3: insertion latency — Algorithm 3 vs recompute", claim);
    let mut report = JsonReport::new("E3", claim);
    let batches: Vec<usize> = if quick {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let sizes: Vec<usize> = if quick { vec![8] } else { vec![8, 16, 32] };
    let runs = if quick { 3 } else { 5 };
    let mut table = Table::new(&[
        "facts/pred",
        "view entries",
        "batch",
        "Alg 3 batched",
        "Alg 3 seq",
        "recompute",
        "ops/s",
        "speedup",
    ]);
    for &facts in &sizes {
        let spec = LayeredSpec {
            layers: 3,
            preds_per_layer: 4,
            facts_per_pred: facts,
            body_atoms: 1,
            ..LayeredSpec::default()
        };
        let db = layered_program(&spec);
        let cfg = FixpointConfig::default();
        let (view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &cfg,
        )
        .expect("fixpoint");
        for &batch in &batches {
            let insertions: Vec<_> = (0..batch)
                .map(|k| random_insertion(&spec, 0xE3 + k as u64, 10))
                .collect();
            // The batched entry point: one P_ADD propagation for the
            // whole insertion set.
            let t_batched = median_time(1, runs, || {
                let mut v = view.clone();
                insert_batch(&db, &mut v, &insertions, &NoDomains, Operator::Tp, &cfg)
                    .expect("insert batch");
            });
            let t_incremental = median_time(1, runs, || {
                let mut v = view.clone();
                for ins in &insertions {
                    insert_atom(&db, &mut v, ins, &NoDomains, Operator::Tp, &cfg).expect("insert");
                }
            });
            let t_recompute = median_time(1, runs, || {
                let mut extended = db.clone();
                for ins in &insertions {
                    extended.push(Clause::fact(
                        &ins.pred,
                        ins.args.clone(),
                        ins.constraint.clone(),
                    ));
                }
                fixpoint(
                    &extended,
                    &NoDomains,
                    Operator::Tp,
                    SupportMode::WithSupports,
                    &cfg,
                )
                .expect("recompute");
            });
            let ops = batch as f64 / t_batched.as_secs_f64().max(1e-9);
            table.row(vec![
                facts.to_string(),
                view.len().to_string(),
                batch.to_string(),
                fmt_duration(t_batched),
                fmt_duration(t_incremental),
                fmt_duration(t_recompute),
                format!("{ops:.0}"),
                format!(
                    "{:.1}x",
                    t_recompute.as_secs_f64() / t_batched.as_secs_f64().max(1e-9)
                ),
            ]);
            report.push(
                JsonRow::new()
                    .int("facts_per_pred", facts as i64)
                    .int("view_entries", view.len() as i64)
                    .int("batch", batch as i64)
                    .secs("insert_batch_s", t_batched)
                    .secs("insert_s", t_incremental)
                    .float("insert_batch_ops_per_sec", ops)
                    .secs("recompute_s", t_recompute),
            );
        }
    }
    table.print();
    report.write_if(&json);
    println!();
    println!(
        "expected shape: Algorithm 3 cost scales with the batch, \
         recomputation with the whole view; speedup grows with view size; \
         the batched entry point beats sequential insertion by sharing \
         one P_ADD propagation."
    );
}
