//! End-to-end integration across every crate: the parsed law-enforcement
//! mediator over live domains, exercised with interleaved updates of
//! both kinds, checked against fresh recomputation after every step.

#![allow(
    clippy::disallowed_methods,
    reason = "a test stand-in for an external system locks its catalog directly"
)]

use mmv::constraints::{SolverConfig, Value};
use mmv::core::{
    fixpoint, parse_atom, FixpointConfig, MaintenanceStrategy, MediatedMaterializedView, Operator,
    SupportMode,
};
use mmv_bench::gen::lawenf::{build, person_name, LawEnfSpec};

fn scfg() -> SolverConfig {
    SolverConfig {
        product_budget: 5_000_000,
        ..SolverConfig::default()
    }
}

fn spec() -> LawEnfSpec {
    LawEnfSpec {
        people: 8,
        photos: 5,
        faces_per_photo: 3,
        near_dc_fraction: 1.0,
        employee_fraction: 1.0,
        seed: 99,
    }
}

#[test]
fn wp_view_stays_exact_through_interleaved_updates() {
    let world = build(&spec());
    let cfg = FixpointConfig::default();
    let mut mv = MediatedMaterializedView::materialize(
        world.db.clone(),
        MaintenanceStrategy::WpDeferred,
        &world.manager,
        world.manager.clock(),
        cfg.clone(),
    )
    .expect("materialize");
    let baseline = mv.view().compact();

    // Round 1: external growth (photos), no maintenance.
    world.face.add_photo("surveillancedata", "x1", &[1, 4]);
    world.face.add_photo("surveillancedata", "x2", &[1, 5]);
    mv.on_external_change(&world.manager, world.manager.clock())
        .expect("maintenance");
    assert!(mv.view().syntactically_equal(&baseline), "Theorem 4");

    // The answers match a T_P view built from scratch right now.
    let fresh = fixpoint(
        &world.db,
        &world.manager,
        Operator::Tp,
        SupportMode::WithSupports,
        &cfg,
    )
    .expect("fresh fixpoint")
    .0;
    let q = |view: &mmv::core::MaterializedView| {
        view.query(
            "suspect",
            &[Some(Value::str(&world.target)), None],
            &world.manager,
            &scfg(),
        )
        .expect("query")
    };
    assert_eq!(q(mv.view()), q(&fresh), "Corollary 1 after growth");

    // Round 2: external shrink (a photo is retracted).
    world.face.remove_photo("surveillancedata", "x1");
    mv.on_external_change(&world.manager, world.manager.clock())
        .expect("maintenance");
    let fresh = fixpoint(
        &world.db,
        &world.manager,
        Operator::Tp,
        SupportMode::WithSupports,
        &cfg,
    )
    .expect("fresh fixpoint")
    .0;
    assert_eq!(q(mv.view()), q(&fresh), "Corollary 1 after shrink");

    // Round 3: view update of kind 1 — clear a suspect association.
    let victim = q(mv.view())
        .iter()
        .next()
        .map(|t| t[1].as_str().unwrap().to_string())
        .expect("a suspect exists");
    let deletion = parse_atom(&format!("seenwith(don, {victim})")).expect("parses");
    mv.delete(&deletion, &world.manager).expect("stdel");
    let after = q(mv.view());
    assert!(
        after.iter().all(|t| t[1] != Value::str(&victim)),
        "{victim} must be cleared"
    );

    // Round 4: reassert the association via insertion; the suspect
    // returns.
    let insertion = parse_atom(&format!("seenwith(don, {victim})")).expect("parses");
    mv.insert(&insertion, &world.manager).expect("insert");
    let restored = q(mv.view());
    assert!(
        restored.iter().any(|t| t[1] == Value::str(&victim)),
        "{victim} must be back after reinsertion"
    );
}

#[test]
fn relational_domain_updates_flow_through_queries() {
    let world = build(&spec());
    let cfg = FixpointConfig::default();
    let mv = MediatedMaterializedView::materialize(
        world.db.clone(),
        MaintenanceStrategy::WpDeferred,
        &world.manager,
        world.manager.clock(),
        cfg,
    )
    .expect("materialize");
    let q = |mv: &MediatedMaterializedView| {
        mv.query(
            "suspect",
            &[Some(Value::str(&world.target)), None],
            &world.manager,
            &scfg(),
        )
        .expect("query")
    };
    let before = q(&mv);
    assert!(!before.is_empty());
    // Fire a suspect from ABC Corp: they drop out of the suspect pool
    // with no view maintenance at all.
    let fired = before.iter().next().unwrap()[1]
        .as_str()
        .unwrap()
        .to_string();
    world
        .dbase
        .write()
        .expect("catalog lock")
        .delete_where_eq("empl_abc", "name", &Value::str(&fired))
        .expect("delete");
    let after = q(&mv);
    assert!(after.iter().all(|t| t[1] != Value::str(&fired)));
    assert_eq!(after.len(), before.len() - 1);
}

#[test]
fn seenwith_is_symmetric_and_excludes_self() {
    let s = spec();
    let world = build(&s);
    let cfg = FixpointConfig::default();
    let (view, _) = fixpoint(
        &world.db,
        &world.manager,
        Operator::Wp,
        SupportMode::WithSupports,
        &cfg,
    )
    .expect("materialize");
    // Queries bind X (the paper's usage: suspect("Don Corleone", Y));
    // build the full relation one person at a time.
    let mut pairs: Vec<(String, String)> = Vec::new();
    for i in 0..s.people {
        let me = person_name(i);
        for t in view
            .query(
                "seenwith",
                &[Some(Value::str(&me)), None],
                &world.manager,
                &scfg(),
            )
            .expect("query")
        {
            pairs.push((me.clone(), t[1].as_str().unwrap().to_string()));
        }
    }
    assert!(!pairs.is_empty());
    for (a, b) in &pairs {
        assert_ne!(a, b, "different faces in the same photo");
        assert!(
            pairs.contains(&(b.clone(), a.clone())),
            "seenwith is symmetric by construction"
        );
    }
}

#[test]
fn parser_roundtrip_on_rendered_database() {
    // Rendering a parsed database and re-parsing it yields a database
    // with the same view semantics.
    let world = build(&spec());
    let rendered = world.db.to_string();
    let reparsed = mmv::core::parse_program(&rendered).expect("re-parses");
    let cfg = FixpointConfig::default();
    let (v1, _) = fixpoint(
        &world.db,
        &world.manager,
        Operator::Wp,
        SupportMode::WithSupports,
        &cfg,
    )
    .unwrap();
    let (v2, _) = fixpoint(
        &reparsed.db,
        &world.manager,
        Operator::Wp,
        SupportMode::WithSupports,
        &cfg,
    )
    .unwrap();
    let q = |v: &mmv::core::MaterializedView| {
        v.query(
            "suspect",
            &[Some(Value::str(&person_name(0))), None],
            &world.manager,
            &scfg(),
        )
        .expect("query")
    };
    assert_eq!(q(&v1), q(&v2));
}
