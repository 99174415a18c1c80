//! E6 — Ablation: the cost of supports.
//!
//! StDel's "no rederivation" property is bought by attaching a
//! derivation index (support) to every view entry and keeping duplicate
//! derivations as separate entries. This ablation measures what that
//! costs at materialization time — build latency, entry count, and
//! retained structure sizes — against the duplicate-free `Plain` mode
//! that Extended DRed uses.
//!
//! Regenerate: `cargo run -p mmv-bench --release --bin e6_supports`

use mmv_bench::gen::constrained::{layered_program, LayeredSpec};
use mmv_bench::harness::{
    banner, fmt_duration, json_path_from_args, median_time, JsonReport, JsonRow, Table,
};
use mmv_constraints::NoDomains;
use mmv_core::{fixpoint, FixpointConfig, Operator, SupportMode};

/// Counts support tree nodes reachable from an entry (shared subtrees
/// counted once per entry, mirroring the arc-sharing of the store).
fn support_nodes(view: &mmv_core::MaterializedView) -> usize {
    fn walk(s: &mmv_core::Support) -> usize {
        1 + s.children().iter().map(walk).sum::<usize>()
    }
    view.live_entries()
        .filter_map(|(_, e)| e.support.as_ref())
        .map(walk)
        .sum()
}

/// Total literal count across live entry constraints.
fn literal_volume(view: &mmv_core::MaterializedView) -> usize {
    view.live_entries()
        .map(|(_, e)| e.atom.constraint.lits.len())
        .sum()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = json_path_from_args();
    let claim = "supports fund StDel's no-rederivation deletion; this is their build-time price";
    banner(
        "E6: support overhead ablation — WithSupports vs Plain",
        claim,
    );
    let mut report = JsonReport::new("E6", claim);
    let sweeps: Vec<(usize, usize, usize)> = if quick {
        vec![(2, 4, 1), (3, 8, 1)]
    } else {
        vec![(2, 4, 1), (3, 8, 1), (4, 16, 1), (2, 4, 2), (3, 6, 2)]
    };
    let runs = if quick { 3 } else { 5 };
    let mut table = Table::new(&[
        "layers",
        "facts",
        "body",
        "build w/ supports",
        "build plain",
        "entries w/",
        "entries plain",
        "spt nodes",
        "lits w/",
        "lits plain",
    ]);
    for (layers, facts, body_atoms) in sweeps {
        let spec = LayeredSpec {
            layers,
            preds_per_layer: 4,
            facts_per_pred: facts,
            body_atoms,
            interval_width: 400, // generous overlap so joins survive
            ..LayeredSpec::default()
        };
        let db = layered_program(&spec);
        let cfg = FixpointConfig::default();
        let t_with = median_time(1, runs, || {
            fixpoint(
                &db,
                &NoDomains,
                Operator::Tp,
                SupportMode::WithSupports,
                &cfg,
            )
            .expect("fixpoint");
        });
        let t_plain = median_time(1, runs, || {
            fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg).expect("fixpoint");
        });
        let (vw, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &cfg,
        )
        .unwrap();
        let (vp, _) = fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg).unwrap();
        table.row(vec![
            layers.to_string(),
            facts.to_string(),
            body_atoms.to_string(),
            fmt_duration(t_with),
            fmt_duration(t_plain),
            vw.len().to_string(),
            vp.len().to_string(),
            support_nodes(&vw).to_string(),
            literal_volume(&vw).to_string(),
            literal_volume(&vp).to_string(),
        ]);
        report.push(
            JsonRow::new()
                .int("layers", layers as i64)
                .int("facts_per_pred", facts as i64)
                .int("body_atoms", body_atoms as i64)
                .secs("build_with_supports_s", t_with)
                .secs("build_plain_s", t_plain)
                .int("entries_with_supports", vw.len() as i64)
                .int("entries_plain", vp.len() as i64)
                .int("support_nodes", support_nodes(&vw) as i64)
                .int("literals_with_supports", literal_volume(&vw) as i64)
                .int("literals_plain", literal_volume(&vp) as i64),
        );
    }
    table.print();
    report.write_if(&json);
    println!();
    println!(
        "expected shape: support mode keeps duplicate derivations \
         (entries w/ >= entries plain) and pays the support-tree memory; \
         build times stay comparable because semi-naive dedup is \
         O(1)/derivation via support hashing."
    );
}
