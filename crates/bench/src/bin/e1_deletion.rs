//! E1 — Deletion maintenance: StDel vs Extended DRed vs full
//! recomputation.
//!
//! Paper claim (§3.1.2, Conclusion): "The important advantage of the new
//! algorithm is the elimination of the rederivation step" — StDel should
//! beat Extended DRed, and both should beat recomputation, with the gap
//! growing with view size and derivation depth.
//!
//! Regenerate: `cargo run -p mmv-bench --release --bin e1_deletion`
//! (add `--quick` for a reduced sweep, `--json <path>` for a
//! machine-readable report including view-build timings and join-engine
//! statistics).

use mmv_bench::gen::constrained::{
    effective_deletion, layered_program, random_deletion, LayeredSpec,
};
use mmv_bench::harness::{
    banner, fmt_duration, json_path_from_args, median_time, time_batched_deletions, JsonReport,
    JsonRow, Table,
};
use mmv_constraints::NoDomains;
use mmv_core::delete_dred::rewrite_for_deletion;
use mmv_core::semantics::build_del;
use mmv_core::{dred_delete, fixpoint, stdel_delete, FixpointConfig, Operator, SupportMode};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = json_path_from_args();
    let claim = "StDel eliminates DRed's rederivation step (paper §3.1.2); both beat recomputation";
    banner(
        "E1: deletion latency — StDel vs Extended DRed vs recompute",
        claim,
    );
    let mut report = JsonReport::new("E1", claim);
    let sweeps: Vec<(usize, usize)> = if quick {
        vec![(2, 4), (3, 8)]
    } else {
        vec![(2, 4), (2, 8), (3, 8), (3, 16), (4, 16), (4, 32)]
    };
    let runs = if quick { 3 } else { 5 };
    let mut table = Table::new(&[
        "layers",
        "facts/pred",
        "view entries",
        "build",
        "StDel",
        "ExtDRed",
        "recompute",
        "DRed/StDel",
        "recomp/StDel",
    ]);
    for (layers, facts) in sweeps {
        let spec = LayeredSpec {
            layers,
            preds_per_layer: 4,
            facts_per_pred: facts,
            body_atoms: 1,
            ..LayeredSpec::default()
        };
        let db = layered_program(&spec);
        let cfg = FixpointConfig::default();
        let (with_supports, build_stats) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &cfg,
        )
        .expect("fixpoint");
        let (plain, _) =
            fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg).expect("fixpoint");
        let t_build = median_time(1, runs, || {
            fixpoint(
                &db,
                &NoDomains,
                Operator::Tp,
                SupportMode::WithSupports,
                &cfg,
            )
            .expect("fixpoint");
        });
        let deletion = random_deletion(&spec, 0xE1);

        let t_stdel = median_time(1, runs, || {
            let mut v = with_supports.clone();
            stdel_delete(&mut v, &deletion, &NoDomains, &cfg.solver).expect("stdel");
        });
        let t_dred = median_time(1, runs, || {
            let mut v = plain.clone();
            dred_delete(&db, &mut v, &deletion, &NoDomains, &cfg).expect("dred");
        });
        let t_recompute = median_time(1, runs, || {
            let mut v = plain.clone();
            let del = build_del(&mut v, &deletion, &NoDomains, &cfg);
            let pprime = rewrite_for_deletion(&db, &del);
            fixpoint(&pprime, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg)
                .expect("recompute");
        });
        table.row(vec![
            layers.to_string(),
            facts.to_string(),
            with_supports.len().to_string(),
            fmt_duration(t_build),
            fmt_duration(t_stdel),
            fmt_duration(t_dred),
            fmt_duration(t_recompute),
            format!(
                "{:.2}x",
                t_dred.as_secs_f64() / t_stdel.as_secs_f64().max(1e-9)
            ),
            format!(
                "{:.2}x",
                t_recompute.as_secs_f64() / t_stdel.as_secs_f64().max(1e-9)
            ),
        ]);
        report.push(
            JsonRow::new()
                .int("layers", layers as i64)
                .int("facts_per_pred", facts as i64)
                .int("view_entries", with_supports.len() as i64)
                .secs("build_s", t_build)
                .secs("stdel_s", t_stdel)
                .secs("dred_s", t_dred)
                .secs("recompute_s", t_recompute)
                .int(
                    "build_derivations_tried",
                    build_stats.derivations_tried as i64,
                )
                .int("build_index_probes", build_stats.index_probes as i64)
                .int(
                    "build_candidates_scanned",
                    build_stats.candidates_scanned as i64,
                ),
        );
    }
    table.print();

    // ---- Multi-update sweep: batched vs sequential maintenance ----------
    // k effective deletions (each guaranteed to hit a fact) applied as
    // one UpdateBatch-style set versus one at a time; ops/sec is the
    // update throughput of the batched pass.
    println!();
    println!("multi-update sweep (batch entry points vs k sequential runs):");
    let spec = LayeredSpec {
        layers: 3,
        preds_per_layer: 4,
        facts_per_pred: if quick { 8 } else { 16 },
        body_atoms: 1,
        ..LayeredSpec::default()
    };
    let db = layered_program(&spec);
    let cfg = FixpointConfig::default();
    let (with_supports, _) = fixpoint(
        &db,
        &NoDomains,
        Operator::Tp,
        SupportMode::WithSupports,
        &cfg,
    )
    .expect("fixpoint");
    let (plain, _) =
        fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg).expect("fixpoint");
    let ks: Vec<usize> = if quick { vec![4] } else { vec![4, 8, 16] };
    let mut batch_table = Table::new(&[
        "k",
        "StDel batch",
        "StDel seq",
        "StDel ops/s",
        "DRed batch",
        "DRed seq",
        "DRed ops/s",
    ]);
    for &k in &ks {
        let deletions: Vec<_> = (0..k)
            .map(|i| effective_deletion(&spec, 0xE1BA + i as u64))
            .collect();
        let t = time_batched_deletions(
            &db,
            &with_supports,
            &plain,
            &deletions,
            &NoDomains,
            &cfg,
            runs,
        );
        batch_table.row(vec![
            k.to_string(),
            fmt_duration(t.stdel_batch),
            fmt_duration(t.stdel_sequential),
            format!("{:.0}", t.stdel_ops_per_sec(k)),
            fmt_duration(t.dred_batch),
            fmt_duration(t.dred_sequential),
            format!("{:.0}", t.dred_ops_per_sec(k)),
        ]);
        report.push(
            JsonRow::new()
                .str("section", "batched_updates")
                .int("batch_size", k as i64)
                .int("view_entries", with_supports.len() as i64)
                .secs("stdel_batch_s", t.stdel_batch)
                .secs("stdel_sequential_s", t.stdel_sequential)
                .float("stdel_batch_ops_per_sec", t.stdel_ops_per_sec(k))
                .secs("dred_batch_s", t.dred_batch)
                .secs("dred_sequential_s", t.dred_sequential)
                .float("dred_batch_ops_per_sec", t.dred_ops_per_sec(k)),
        );
    }
    batch_table.print();

    report.write_if(&json);
    println!();
    println!(
        "expected shape: StDel fastest; ratios grow with layers/facts \
         (the rederivation and recomputation joins scale with the view); \
         batched k-update maintenance beats k sequential runs."
    );
}
