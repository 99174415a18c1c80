//! The domain manager: the mediator's gateway to external systems.
//!
//! A *domain* (paper §2.1) abstracts a database or software package: a set
//! of data objects Σ, functions F over them, and relations. The mediator
//! only ever observes a domain through domain calls
//! `domainname:function(args)` whose results are coerced to sets — the
//! [`ValueSet`] returned by [`Domain::call`].
//!
//! The manager implements [`DomainResolver`], so constraint solving and
//! `[·]`-instance evaluation can be run "at the current time point";
//! domain mutations change later resolutions, which is exactly the
//! function-behaviour-over-time model (`d:f_t`) of Section 4.

use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::{DomainResolver, Value, ValueSet};
use mmv_obs::sync::lock_clean;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An external system exposed to the mediator as a named set of functions.
pub trait Domain: Send + Sync {
    /// The domain's name (the `domainname` in a domain call).
    fn name(&self) -> &str;

    /// Executes `func(args)` and coerces the result to a set.
    ///
    /// Unknown functions and ill-typed arguments yield the empty set: a
    /// DCA-atom over them is simply unsolvable, mirroring the paper's
    /// treatment of constraints as satisfied-or-not.
    fn call(&self, func: &str, args: &[Value]) -> ValueSet;

    /// A monotone version: bumped whenever the behaviour of any function
    /// of this domain changes (e.g. the underlying table was updated).
    /// Pure, immutable domains may always return 0.
    fn version(&self) -> u64 {
        0
    }

    /// The function names this domain exposes (for diagnostics).
    fn functions(&self) -> Vec<&'static str> {
        Vec::new()
    }
}

type CacheKey = (Arc<str>, Arc<str>, Vec<Value>);

/// Statistics counters for domain-call traffic: the cost of query-time
/// evaluation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CallStats {
    /// Calls answered from the memo cache.
    pub cache_hits: u64,
    /// Calls executed against a domain.
    pub misses: u64,
    /// Calls naming an unregistered domain.
    pub unknown_domain: u64,
}

/// Registry of domains plus a per-version memo cache for call results.
pub struct DomainManager {
    domains: FxHashMap<Arc<str>, Arc<dyn Domain>>,
    cache: Mutex<FxHashMap<CacheKey, (u64, ValueSet)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    unknown: AtomicU64,
}

impl Default for DomainManager {
    fn default() -> Self {
        Self::new()
    }
}

impl DomainManager {
    /// An empty manager.
    pub fn new() -> Self {
        DomainManager {
            domains: FxHashMap::default(),
            cache: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            unknown: AtomicU64::new(0),
        }
    }

    /// Registers a domain under its own name, replacing any previous
    /// domain of the same name.
    pub fn register(&mut self, domain: Arc<dyn Domain>) {
        self.domains.insert(Arc::from(domain.name()), domain);
    }

    /// Looks up a domain by name.
    pub fn domain(&self, name: &str) -> Option<&Arc<dyn Domain>> {
        self.domains.get(name)
    }

    /// Registered domain names, sorted.
    pub fn domain_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.domains.keys().map(|k| k.as_ref()).collect();
        names.sort_unstable();
        names
    }

    /// The sum of all domain versions: a logical clock that advances
    /// whenever any external system changes.
    pub fn clock(&self) -> u64 {
        self.domains.values().map(|d| d.version()).sum()
    }

    /// Call-traffic counters since construction (or the last reset).
    pub fn stats(&self) -> CallStats {
        CallStats {
            cache_hits: self.hits.load(Ordering::Relaxed), // order: traffic tally; cross-counter tearing is fine in a stats snapshot
            misses: self.misses.load(Ordering::Relaxed), // order: traffic tally; cross-counter tearing is fine in a stats snapshot
            unknown_domain: self.unknown.load(Ordering::Relaxed), // order: traffic tally; cross-counter tearing is fine in a stats snapshot
        }
    }

    /// Zeroes the call-traffic counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed); // order: stats reset is advisory; no reader depends on cross-counter order
        self.misses.store(0, Ordering::Relaxed); // order: stats reset is advisory; no reader depends on cross-counter order
        self.unknown.store(0, Ordering::Relaxed); // order: stats reset is advisory; no reader depends on cross-counter order
    }

    /// Drops all memoized call results.
    pub fn clear_cache(&self) {
        lock_clean(&self.cache).clear();
    }
}

impl DomainResolver for DomainManager {
    fn resolve(&self, domain: &str, func: &str, args: &[Value]) -> ValueSet {
        let Some((dname, d)) = self.domains.get_key_value(domain) else {
            self.unknown.fetch_add(1, Ordering::Relaxed); // order: monotonic traffic counter; no ordering with the lookup it counts
            return ValueSet::Empty;
        };
        let version = d.version();
        let key: CacheKey = (dname.clone(), Arc::from(func), args.to_vec());
        // The memo cache recovers from poison like every domain lock
        // (see [`crate::sync`]): each cache mutation is one `HashMap`
        // operation, so a recovered cache is structurally sound — at
        // worst it is missing an entry the panicked caller never
        // finished inserting, and a miss just re-executes the call.
        {
            let cache = lock_clean(&self.cache);
            if let Some((v, set)) = cache.get(&key) {
                if *v == version {
                    self.hits.fetch_add(1, Ordering::Relaxed); // order: monotonic traffic counter; the cache mutex orders the data
                    return set.clone();
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed); // order: monotonic traffic counter; the cache mutex orders the data
        let set = d.call(func, args);
        lock_clean(&self.cache).insert(key, (version, set.clone()));
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    struct Fake {
        version: Counter,
        calls: Counter,
    }

    impl Domain for Fake {
        fn name(&self) -> &str {
            "fake"
        }
        fn call(&self, func: &str, _args: &[Value]) -> ValueSet {
            self.calls.fetch_add(1, Ordering::Relaxed);
            match func {
                "one" => {
                    ValueSet::singleton(Value::int(self.version.load(Ordering::Relaxed) as i64))
                }
                _ => ValueSet::Empty,
            }
        }
        fn version(&self) -> u64 {
            self.version.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn cache_hits_until_version_changes() {
        let fake = Arc::new(Fake {
            version: Counter::new(0),
            calls: Counter::new(0),
        });
        let mut m = DomainManager::new();
        m.register(fake.clone());
        let a = m.resolve("fake", "one", &[]);
        let b = m.resolve("fake", "one", &[]);
        assert_eq!(a, b);
        assert_eq!(fake.calls.load(Ordering::Relaxed), 1);
        assert_eq!(m.stats().cache_hits, 1);
        // Version bump invalidates.
        fake.version.fetch_add(1, Ordering::Relaxed);
        let c = m.resolve("fake", "one", &[]);
        assert_ne!(a, c);
        assert_eq!(fake.calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn unknown_domain_is_empty() {
        let m = DomainManager::new();
        assert_eq!(m.resolve("ghost", "f", &[]), ValueSet::Empty);
        assert_eq!(m.stats().unknown_domain, 1);
    }

    #[test]
    fn clock_sums_versions() {
        let fake = Arc::new(Fake {
            version: Counter::new(3),
            calls: Counter::new(0),
        });
        let mut m = DomainManager::new();
        m.register(fake);
        assert_eq!(m.clock(), 3);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "poisons the cache lock on purpose"
    )]
    fn poisoned_cache_lock_recovers() {
        let fake = Arc::new(Fake {
            version: Counter::new(0),
            calls: Counter::new(0),
        });
        let mut m = DomainManager::new();
        m.register(fake);
        let m = Arc::new(m);
        let m2 = Arc::clone(&m);
        // Poison the memo cache by panicking while holding its guard.
        let _ = std::thread::spawn(move || {
            let _g = m2.cache.lock().unwrap();
            panic!("poison the cache lock");
        })
        .join();
        assert!(m.cache.is_poisoned());
        // Resolution recovers the cache: misses execute, hits memoize.
        assert_eq!(m.resolve("fake", "one", &[]), m.resolve("fake", "one", &[]));
        assert_eq!(m.stats().cache_hits, 1);
        m.clear_cache();
        assert!(!m.cache.is_poisoned());
    }
}
