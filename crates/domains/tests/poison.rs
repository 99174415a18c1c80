//! Panic-injection tests for the domains' poison recovery, at the
//! crate's public surface.
//!
//! Every domain guards its store behind a poison-recovering lock (see
//! `mmv_obs::sync`): a panic while a guard is held must
//! cost exactly the panicking caller, never brick the domain for later
//! readers — the recovery contract the service's writer lock carries
//! and the bench sensors fix demonstrated. The
//! in-file unit tests poison each private store lock directly; these
//! tests cover the two poisons reachable from *outside* the crate: an
//! external writer panicking on a shared relational catalog, and a
//! domain backend panicking under the manager's memo cache.

#![allow(
    clippy::disallowed_methods,
    reason = "tests poison domain locks on purpose"
)]

use mmv_constraints::{DomainResolver, Value, ValueSet};
use mmv_domains::{Domain, DomainManager, RelationalDomain};
use mmv_storage::{Catalog, ColumnType, Schema};
use std::sync::{Arc, RwLock};

#[test]
fn relational_domain_survives_an_external_catalog_writer_panic() {
    let mut cat = Catalog::new();
    cat.create_table(
        "phonebook",
        Schema::new(vec![("name", ColumnType::Str), ("city", ColumnType::Str)]),
    )
    .unwrap();
    cat.insert("phonebook", &[Value::str("john smith"), Value::str("dc")])
        .unwrap();
    let cat = Arc::new(RwLock::new(cat));
    let d = RelationalDomain::new("paradox", cat.clone());
    let v0 = d.version();
    // An *external* writer (tests and benches mutate the shared catalog
    // directly) panics while holding the write guard — the way this
    // lock gets poisoned in practice.
    let cat2 = cat.clone();
    let handle = std::thread::spawn(move || {
        let _g = cat2.write().unwrap();
        panic!("external catalog writer dies mid-critical-section");
    });
    assert!(handle.join().is_err());
    assert!(cat.is_poisoned());
    // The domain recovers the guard and keeps serving reads; the next
    // healthy writer is not blocked either.
    let s = d.call(
        "select_eq",
        &[
            Value::str("phonebook"),
            Value::str("name"),
            Value::str("john smith"),
        ],
    );
    assert_eq!(s.enumerate(10).unwrap().len(), 1);
    assert_eq!(d.version(), v0);
    cat.write()
        .unwrap()
        .insert("phonebook", &[Value::str("jane doe"), Value::str("nyc")])
        .unwrap();
    assert!(d.version() > v0);
    assert_eq!(
        d.call("project", &[Value::str("phonebook"), Value::str("city")])
            .finite_len(),
        Some(2)
    );
}

#[test]
fn manager_keeps_serving_after_a_panicking_domain_call() {
    // A registered domain whose backend panics mid-call: the manager
    // must not end up wedged (it never holds the cache lock across the
    // call), and later resolutions of healthy functions keep hitting
    // the memo cache.
    struct Bomb;
    impl Domain for Bomb {
        fn name(&self) -> &str {
            "bomb"
        }
        fn call(&self, func: &str, _args: &[Value]) -> ValueSet {
            match func {
                "ok" => ValueSet::singleton(Value::int(1)),
                _ => panic!("domain backend crashed"),
            }
        }
    }
    let mut m = DomainManager::new();
    m.register(Arc::new(Bomb));
    let m = Arc::new(m);
    assert_eq!(
        m.resolve("bomb", "ok", &[]),
        ValueSet::singleton(Value::int(1))
    );
    let m2 = Arc::clone(&m);
    let crash = std::thread::spawn(move || {
        let _ = m2.resolve("bomb", "boom", &[]);
    });
    assert!(crash.join().is_err());
    // The crashed call cost only itself.
    assert_eq!(
        m.resolve("bomb", "ok", &[]),
        ValueSet::singleton(Value::int(1))
    );
    assert!(m.stats().cache_hits >= 1);
    m.clear_cache();
    assert_eq!(
        m.resolve("bomb", "ok", &[]),
        ValueSet::singleton(Value::int(1))
    );
}
