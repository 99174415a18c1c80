//! E5 — Recursive views: StDel works where the counting algorithm fails.
//!
//! Paper claim (§3.1.2 discussion + Conclusion): the counting method of
//! \[21\] "can lead to infinite counts" on recursive views and is rejected
//! here at construction; StDel handles recursion (Example 6), and its
//! result agrees with ground DRed and full recomputation.
//!
//! Workload: transitive closure over *acyclic* random graphs (so
//! duplicate-derivation supports stay finite), deleting one edge.
//!
//! Regenerate: `cargo run -p mmv-bench --release --bin e5_recursion`
//! (add `--quick` for a reduced sweep, `--json <path>` for a
//! machine-readable report including view-build timings).

use mmv_bench::gen::ground::{ground_to_constrained, tc_program, GraphSpec};
use mmv_bench::harness::{
    banner, fmt_duration, json_path_from_args, median_time, JsonReport, JsonRow, Table,
};
use mmv_constraints::{NoDomains, Value};
use mmv_core::{fixpoint, stdel_delete, FixpointConfig, Operator, SupportMode};
use mmv_datalog::{evaluate, CountingEngine, Fact};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random DAG edges: only i -> j with i < j.
fn dag_edges(spec: &GraphSpec) -> Vec<(i64, i64)> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    // A backbone chain keeps the closure deep.
    for i in 0..spec.nodes as i64 - 1 {
        seen.insert((i, i + 1));
        out.push((i, i + 1));
    }
    while out.len() < spec.edges {
        let a = rng.gen_range(0..spec.nodes - 1);
        let b = rng.gen_range(a + 1..spec.nodes);
        let e = (a as i64, b as i64);
        if seen.insert(e) {
            out.push(e);
        }
    }
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = json_path_from_args();
    let claim =
        "counting has infinite counts on recursion (paper §3.1.2); StDel handles recursive views";
    banner(
        "E5: recursive views — StDel vs counting (inapplicable) vs ground DRed",
        claim,
    );
    let mut report = JsonReport::new("E5", claim);
    let sweeps: Vec<usize> = if quick { vec![12] } else { vec![12, 18, 24] };
    let runs = if quick { 3 } else { 5 };
    let mut table = Table::new(&[
        "nodes",
        "edges",
        "tc facts",
        "counting",
        "build",
        "StDel",
        "ground DRed",
        "agree",
    ]);
    for nodes in sweeps {
        let spec = GraphSpec {
            nodes,
            edges: nodes + nodes / 3,
            seed: 0xE5,
        };
        let edges = dag_edges(&spec);
        let program = tc_program(&edges);

        // Counting: rejected at construction (predicate-level recursion).
        let counting_outcome = match CountingEngine::new(program.clone()) {
            Ok(_) => "UNEXPECTEDLY OK".to_string(),
            Err(e) => format!("rejected ({})", e.predicate),
        };

        let materialized = evaluate(&program);
        let victim_edge = edges[nodes / 2];
        let victim = Fact::new(
            "edge",
            vec![Value::Int(victim_edge.0), Value::Int(victim_edge.1)],
        );

        let t_ground_dred = median_time(1, runs, || {
            mmv_datalog::apply_update(&program, &materialized, std::slice::from_ref(&victim), &[]);
        });

        let cdb = ground_to_constrained(&program);
        let cfg = FixpointConfig {
            max_entries: 4_000_000,
            ..FixpointConfig::default()
        };
        let (view, build_stats) = fixpoint(
            &cdb,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &cfg,
        )
        .expect("fixpoint (finite derivations on a DAG)");
        let t_build = median_time(if quick { 0 } else { 1 }, runs, || {
            fixpoint(
                &cdb,
                &NoDomains,
                Operator::Tp,
                SupportMode::WithSupports,
                &cfg,
            )
            .expect("fixpoint");
        });
        let deletion = mmv_core::ConstrainedAtom::fact(
            "edge",
            vec![Value::Int(victim_edge.0), Value::Int(victim_edge.1)],
        );
        let t_stdel = median_time(1, runs, || {
            let mut v = view.clone();
            stdel_delete(&mut v, &deletion, &NoDomains, &cfg.solver).expect("stdel");
        });

        // Cross-check: StDel == ground DRed == recompute.
        let agree = {
            let (ground_after, _) = mmv_datalog::apply_update(
                &program,
                &materialized,
                std::slice::from_ref(&victim),
                &[],
            );
            let mut v = view.clone();
            stdel_delete(&mut v, &deletion, &NoDomains, &cfg.solver).expect("stdel");
            let ci = v.instances(&NoDomains, &cfg.solver).expect("instances");
            let gset: std::collections::BTreeSet<(String, Vec<Value>)> = ground_after
                .facts()
                .map(|f| (f.pred.to_string(), f.args))
                .collect();
            let cset: std::collections::BTreeSet<(String, Vec<Value>)> =
                ci.into_iter().map(|(p, t)| (p.to_string(), t)).collect();
            gset == cset
        };

        let tc_count = materialized
            .facts()
            .filter(|f| f.pred.as_ref() == "tc")
            .count();
        table.row(vec![
            nodes.to_string(),
            edges.len().to_string(),
            tc_count.to_string(),
            counting_outcome.clone(),
            fmt_duration(t_build),
            fmt_duration(t_stdel),
            fmt_duration(t_ground_dred),
            if agree { "yes" } else { "NO" }.to_string(),
        ]);
        report.push(
            JsonRow::new()
                .int("nodes", nodes as i64)
                .int("edges", edges.len() as i64)
                .int("tc_facts", tc_count as i64)
                .str("counting", &counting_outcome)
                .secs("build_s", t_build)
                .secs("stdel_s", t_stdel)
                .secs("ground_dred_s", t_ground_dred)
                .bool("agree", agree)
                .int("view_entries", view.len() as i64)
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
        assert!(agree, "StDel must agree with ground DRed");
    }
    table.print();
    report.write_if(&json);
    println!();
    println!(
        "expected shape: counting is rejected on every recursive input; \
         StDel completes and matches ground DRed exactly. (StDel pays for \
         duplicate-derivation supports — the memory side is E6.)"
    );
}
