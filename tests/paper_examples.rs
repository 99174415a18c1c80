//! Every worked example of the paper, executed end-to-end through the
//! public textual API (parser → fixpoint → maintenance → queries).
//!
//! Examples 4 and 5 share one database whose comparison glyphs are
//! ambiguous in the source scan; the `>=` reading — the one consistent
//! with both walk-throughs — is used here (see
//! `crates/core/src/delete_stdel.rs` for the argument).

#![allow(
    clippy::disallowed_methods,
    reason = "a test stand-in domain locks its values directly"
)]

use mmv::constraints::{NoDomains, SolverConfig, Value, ValueSet};
use mmv::core::{
    dred_delete, fixpoint, insert_atom, parse_atom, parse_program, stdel_delete, FixpointConfig,
    Operator, SupportMode,
};
use mmv::domains::{Domain, DomainManager};
use std::sync::Arc;

fn cfg() -> FixpointConfig {
    FixpointConfig::default()
}

fn scfg() -> SolverConfig {
    SolverConfig::default()
}

/// Examples 4/5's constrained database.
fn example45_db() -> mmv::core::ConstrainedDatabase {
    parse_program(
        "a(X) <- X >= 3.\n\
         a(X) <- || b(X).\n\
         b(X) <- X >= 5.\n\
         c(X) <- || a(X).",
    )
    .expect("parses")
    .db
}

#[test]
fn example_3_ground_deletion_cascades() {
    // "deleting seenwith(don, john) … the materialized view will be
    // updated by the deletion of the two atoms seenwith(don, john) and
    // swlndc(don, john)."
    let db = parse_program(
        "seenwith(don, john).\n\
         seenwith(don, ed).\n\
         swlndc(X, Y) <- || seenwith(X, Y).",
    )
    .expect("parses")
    .db;
    let (mut view, _) = fixpoint(
        &db,
        &NoDomains,
        Operator::Tp,
        SupportMode::WithSupports,
        &cfg(),
    )
    .expect("fixpoint");
    assert_eq!(view.len(), 4);
    let deletion = parse_atom("seenwith(don, john)").expect("parses");
    let stats = stdel_delete(&mut view, &deletion, &NoDomains, &scfg()).expect("stdel");
    // Exactly the two atoms of the paper's P_OUT are deleted.
    assert_eq!(stats.removed, 2);
    let inst = view.instances(&NoDomains, &scfg()).expect("instances");
    assert_eq!(inst.len(), 2);
    assert!(inst.iter().all(|(_, t)| t[1] == Value::str("ed")));
}

#[test]
fn example_4_extended_dred_rederivation() {
    // Delete b(6): a(6) "has a proof independently" via a(X) <- X >= 3
    // and must survive rederivation; likewise c(6) through it.
    let db = example45_db();
    let (mut view, _) =
        fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg()).expect("fixpoint");
    let deletion = parse_atom("b(X) <- X = 6").expect("parses");
    let stats = dred_delete(&db, &mut view, &deletion, &NoDomains, &cfg()).expect("dred");
    assert_eq!(stats.del_atoms, 1);
    assert!(stats.pout_atoms >= 3, "B@6, A@6, C@6 in the overestimate");
    assert!(stats.rederived >= 1, "a@6 comes back");
    let q = |p: &str, v: i64| {
        view.query(p, &[Some(Value::int(v))], &NoDomains, &scfg())
            .expect("query")
            .len()
    };
    assert_eq!(q("b", 6), 0, "b lost 6");
    assert_eq!(q("a", 6), 1, "a keeps 6 independently");
    assert_eq!(q("c", 6), 1, "c keeps 6 through a");
    assert_eq!(q("b", 7), 1, "untouched instances intact");
}

#[test]
fn example_5_stdel_walkthrough() {
    // The paper's full StDel trace: delete b(6); the replacements follow
    // the supports <3>, <2,<3>>, <4,<2,<3>>> (1-based) with NO
    // rederivation, yielding "X >= 5 & X != 6" entries.
    let db = example45_db();
    let (mut view, _) = fixpoint(
        &db,
        &NoDomains,
        Operator::Tp,
        SupportMode::WithSupports,
        &cfg(),
    )
    .expect("fixpoint");
    assert_eq!(view.len(), 5, "the paper's five-entry view");
    let deletion = parse_atom("b(X) <- X = 6").expect("parses");
    let stats = stdel_delete(&mut view, &deletion, &NoDomains, &scfg()).expect("stdel");
    assert_eq!(stats.direct_replacements, 1, "b's entry");
    assert_eq!(
        stats.propagated_replacements, 2,
        "a's and c's derived entries"
    );
    assert_eq!(stats.pout_pairs, 3);
    assert_eq!(stats.removed, 0, "nothing becomes unsolvable");
    // Semantics: 6 is gone from the derived chain but kept where an
    // independent proof exists.
    let q = |p: &str, v: i64| {
        view.query(p, &[Some(Value::int(v))], &NoDomains, &scfg())
            .expect("query")
            .len()
    };
    assert_eq!(q("b", 6), 0);
    assert_eq!(q("a", 6), 1, "via a(X) <- X >= 3");
    assert_eq!(q("c", 6), 1);
    assert_eq!(q("b", 9), 1);
}

#[test]
fn example_6_recursive_view_deletion() {
    let db = parse_program(
        "p(X, Y) <- X = a & Y = b.\n\
         p(X, Y) <- X = a & Y = c.\n\
         p(X, Y) <- X = c & Y = d.\n\
         a(X, Y) <- || p(X, Y).\n\
         a(X, Y) <- || p(X, Z), a(Z, Y).",
    )
    .expect("parses")
    .db;
    let (mut view, _) = fixpoint(
        &db,
        &NoDomains,
        Operator::Tp,
        SupportMode::WithSupports,
        &cfg(),
    )
    .expect("fixpoint");
    // The paper's 7-entry view, including the recursive a(a, d).
    assert_eq!(view.len(), 7);
    let deletion = parse_atom("p(X, Y) <- X = c & Y = d").expect("parses");
    let stats = stdel_delete(&mut view, &deletion, &NoDomains, &scfg()).expect("stdel");
    // "The constraints of each of constraint atoms 3, 6, and 7 are not
    // solvable. Hence these atoms may be removed."
    assert_eq!(stats.removed, 3);
    let inst = view.instances(&NoDomains, &scfg()).expect("instances");
    let expected: Vec<(&str, &str, &str)> = vec![
        ("a", "a", "b"),
        ("a", "a", "c"),
        ("p", "a", "b"),
        ("p", "a", "c"),
    ];
    let got: Vec<(String, String, String)> = inst
        .iter()
        .map(|(p, t)| {
            (
                p.to_string(),
                t[0].as_str().unwrap().to_string(),
                t[1].as_str().unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(
        got,
        expected
            .iter()
            .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
            .collect::<Vec<_>>()
    );
}

/// Example 7/8's domain: a function `g` whose output changes over time.
struct FlickerDomain {
    values: std::sync::RwLock<Vec<Value>>,
    version: std::sync::atomic::AtomicU64,
}

impl FlickerDomain {
    fn set(&self, values: Vec<Value>) {
        *self.values.write().unwrap() = values;
        self.version
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Domain for FlickerDomain {
    fn name(&self) -> &str {
        "d"
    }
    fn call(&self, func: &str, _args: &[Value]) -> ValueSet {
        match func {
            "g" => ValueSet::finite(self.values.read().unwrap().iter().cloned()),
            _ => ValueSet::Empty,
        }
    }
    fn version(&self) -> u64 {
        self.version.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[test]
fn example_7_function_shrink_under_wp() {
    // B(X) <- in(X, d:g(b)); g(b) = {a} at time t, {} at t+1. The T_P
    // view at t+1 "would be empty"; the W_P view keeps the syntactic
    // atom and its instances become empty at query time.
    let flicker = Arc::new(FlickerDomain {
        values: std::sync::RwLock::new(vec![Value::str("a")]),
        version: std::sync::atomic::AtomicU64::new(0),
    });
    let mut manager = DomainManager::new();
    manager.register(flicker.clone());
    let db = parse_program("bee(X) <- in(X, d:g(b)).")
        .expect("parses")
        .db;
    let (wp, _) = fixpoint(
        &db,
        &manager,
        Operator::Wp,
        SupportMode::WithSupports,
        &cfg(),
    )
    .expect("fixpoint");
    assert_eq!(wp.len(), 1);
    assert_eq!(
        wp.query("bee", &[None], &manager, &scfg())
            .expect("query")
            .len(),
        1
    );
    flicker.set(vec![]);
    assert_eq!(wp.len(), 1, "syntactically unchanged (Theorem 4)");
    assert!(
        wp.query("bee", &[None], &manager, &scfg())
            .expect("query")
            .is_empty(),
        "instances empty at t+1"
    );
    // T_P built at t+1 is empty — and agrees with W_P's instances.
    let (tp, _) = fixpoint(
        &db,
        &manager,
        Operator::Tp,
        SupportMode::WithSupports,
        &cfg(),
    )
    .expect("fixpoint");
    assert_eq!(tp.len(), 0);
}

#[test]
fn example_8_wp_instances_track_tp() {
    // P = { A(X) <- in(X, d1:f(X)) || B(X, Y);  B(a,b);  B(b,b) } with
    // f_t(b) = {b}, f_t(x) = {} otherwise. [M] = {B(a,b), B(b,b), A(b)}.
    struct F {
        mode: std::sync::atomic::AtomicU64,
    }
    impl Domain for F {
        fn name(&self) -> &str {
            "d1"
        }
        fn call(&self, func: &str, args: &[Value]) -> ValueSet {
            if func != "f" {
                return ValueSet::Empty;
            }
            let target = match self.mode.load(std::sync::atomic::Ordering::Relaxed) {
                0 => Value::str("b"),
                _ => Value::str("a"),
            };
            match args.first() {
                Some(v) if *v == target => ValueSet::singleton(target),
                _ => ValueSet::Empty,
            }
        }
        fn version(&self) -> u64 {
            self.mode.load(std::sync::atomic::Ordering::Relaxed)
        }
    }
    let f = Arc::new(F {
        mode: std::sync::atomic::AtomicU64::new(0),
    });
    let mut manager = DomainManager::new();
    manager.register(f.clone());
    let db = parse_program(
        "bee(a, b).\n\
         bee(b, b).\n\
         aay(X) <- in(X, d1:f(X)) || bee(X, Y).",
    )
    .expect("parses")
    .db;
    let (wp, _) = fixpoint(
        &db,
        &manager,
        Operator::Wp,
        SupportMode::WithSupports,
        &cfg(),
    )
    .expect("fixpoint");
    // At time t: [M] contains A(b) (f(b) = {b}).
    let inst = wp.instances(&manager, &scfg()).expect("instances");
    let aay: Vec<_> = inst.iter().filter(|(p, _)| p.as_ref() == "aay").collect();
    assert_eq!(aay.len(), 1);
    assert_eq!(aay[0].1[0], Value::str("b"));
    // At time t+1 (f(a) = {a}, f(b) = {}): [M] contains A(a) instead —
    // with the view untouched.
    f.mode.store(1, std::sync::atomic::Ordering::Relaxed);
    let inst2 = wp.instances(&manager, &scfg()).expect("instances");
    let aay2: Vec<_> = inst2.iter().filter(|(p, _)| p.as_ref() == "aay").collect();
    assert_eq!(aay2.len(), 1);
    assert_eq!(aay2[0].1[0], Value::str("a"));
    // Matching T_P views at each time point (Corollary 1) — checked via
    // a fresh build.
    let (tp2, _) = fixpoint(
        &db,
        &manager,
        Operator::Tp,
        SupportMode::WithSupports,
        &cfg(),
    )
    .expect("fixpoint");
    assert_eq!(tp2.instances(&manager, &scfg()).expect("instances"), inst2);
}

#[test]
fn insertion_motivating_case() {
    // §3 "Atom Addition": seenwith(don, jane) may be inserted "even
    // though this fact may not be derivable using clause (1)".
    let db = parse_program(
        "seenwith(don, ed).\n\
         swlndc(X, Y) <- || seenwith(X, Y).\n\
         suspect(Y) <- || swlndc(X, Y).",
    )
    .expect("parses")
    .db;
    let (mut view, _) = fixpoint(
        &db,
        &NoDomains,
        Operator::Tp,
        SupportMode::WithSupports,
        &cfg(),
    )
    .expect("fixpoint");
    let ins = parse_atom("seenwith(don, jane)").expect("parses");
    let stats =
        insert_atom(&db, &mut view, &ins, &NoDomains, Operator::Tp, &cfg()).expect("insert");
    assert!(stats.added);
    assert_eq!(stats.propagated, 2, "swlndc and suspect follow");
    let hits = view
        .query("suspect", &[Some(Value::str("jane"))], &NoDomains, &scfg())
        .expect("query");
    assert_eq!(hits.len(), 1);
}
