//! The paper's running example (Example 1 / Figure 1): the
//! law-enforcement mediator spanning five external systems —
//! face extraction, a mugshot database, a PARADOX phone book, a spatial
//! system, and a DBASE employee table.
//!
//! ```text
//!                    ┌───────────────── mediator ─────────────────┐
//!                    │ seenwith ──> swlndc ──> suspect            │
//!                    └─┬──────┬──────┬─────────┬─────────┬────────┘
//!                      │      │      │         │         │
//!                 facextract facedb paradox spatialdb  dbase
//!                 (segment/  (find  (phone   (geocode/ (empl_abc)
//!                  matchface) face/  book)    range)
//!                            name)
//! ```
//!
//! Run with: `cargo run --example law_enforcement`

#![allow(
    clippy::disallowed_methods,
    reason = "the example plays the external system and locks its catalog directly"
)]

use mmv::constraints::{SolverConfig, Value};
use mmv::core::{parse_atom, FixpointConfig, MaintenanceStrategy, MediatedMaterializedView};
use mmv_bench::gen::lawenf::{build, person_name, LawEnfSpec};

fn main() {
    // Build a synthetic world: 10 people, 6 surveillance photos; person 0
    // is "don" (the paper's Don Corleone stand-in) and appears in every
    // photo.
    let spec = LawEnfSpec {
        people: 10,
        photos: 6,
        faces_per_photo: 3,
        near_dc_fraction: 0.6,
        employee_fraction: 0.6,
        seed: 42,
    };
    let world = build(&spec);
    println!("domains online: {:?}", world.manager.domain_names());
    println!("mediator:\n{}", world.db);

    // Materialize with W_P: the view is *syntactic* — three constrained
    // atoms, one per clause — and never needs maintenance.
    let mut mv = MediatedMaterializedView::materialize(
        world.db.clone(),
        MaintenanceStrategy::WpDeferred,
        &world.manager,
        world.manager.clock(),
        FixpointConfig::default(),
    )
    .expect("materializes");
    println!(
        "materialized mediated view: {} non-ground entries\n",
        mv.view().len()
    );

    let scfg = SolverConfig {
        product_budget: 5_000_000,
        ..SolverConfig::default()
    };
    let suspects = |mv: &MediatedMaterializedView| {
        mv.query(
            "suspect",
            &[Some(Value::str(&world.target)), None],
            &world.manager,
            &scfg,
        )
        .expect("query")
        .iter()
        .map(|t| t[1].as_str().unwrap_or("?").to_string())
        .collect::<Vec<_>>()
    };
    println!("suspects seen with {}: {:?}\n", world.target, suspects(&mv));

    // External update (kind 2): new surveillance photos arrive. Under
    // W_P, *no maintenance action whatsoever* is needed (Theorem 4).
    // Pick a companion who would qualify as a suspect (near DC and
    // employed) but has not been photographed with don yet; face id
    // i+1 belongs to person i.
    let current = suspects(&mv);
    let (newcomer_idx, newcomer) = (1..spec.people)
        .map(|i| (i, person_name(i)))
        .find(|(i, name)| {
            let near_dc = (*i as f64 / spec.people as f64) < spec.near_dc_fraction;
            near_dc && !current.contains(name)
        })
        .expect("someone lives near DC and is not yet a suspect");
    // Two external systems change at once: the photo arrives, and (if
    // needed) ABC Corp's employee table gains the newcomer.
    let employed = !world
        .dbase
        .read()
        .expect("catalog lock")
        .table("empl_abc")
        .expect("table")
        .select_eq("name", &Value::str(&newcomer))
        .is_empty();
    if !employed {
        world
            .dbase
            .write()
            .expect("catalog lock")
            .insert("empl_abc", &[Value::str(&newcomer)])
            .expect("schema ok");
    }
    world.face.add_photo(
        "surveillancedata",
        "tonight_cam1",
        &[1, 1 + newcomer_idx as u64],
    );
    let action = mv
        .on_external_change(&world.manager, world.manager.clock())
        .expect("maintenance");
    println!("photo of don with {newcomer} added; maintenance action: {action:?}");
    println!("suspects now: {:?}\n", suspects(&mv));

    // View update (kind 1): external evidence clears one association —
    // "the photograph was a forgery intended to frame John" (Example 3).
    let cleared = suspects(&mv).first().cloned().expect("a suspect exists");
    let deletion = parse_atom(&format!("seenwith(don, {cleared})")).expect("parses");
    let stats = mv.delete(&deletion, &world.manager).expect("stdel");
    println!(
        "cleared {cleared} (StDel: {} replacements, {} entries removed)",
        stats.direct_replacements + stats.propagated_replacements,
        stats.removed,
    );
    println!("suspects after clearing: {:?}", suspects(&mv));
}
