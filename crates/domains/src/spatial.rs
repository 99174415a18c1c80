//! The spatial domain: a stand-in for the paper's "spatial data
//! management system" (`spatialdb:locateaddress`, `spatialdb:range`).
//!
//! Substitution (DESIGN.md §5): the real system geocoded addresses to map
//! coordinates. We geocode *deterministically* by hashing the address
//! fields onto a bounded grid — the mediator's observable behaviour (a
//! set-valued function from address to point, plus range predicates over
//! points) is preserved, and results are stable across runs and seeds.

use crate::manager::Domain;
use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::{Value, ValueSet};
use mmv_obs::sync::{read_clean, write_clean};
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

/// Side length of the synthetic map grid (coordinates are `0..GRID`).
pub const GRID: i64 = 1000;

/// Cell size of the landmark grid index.
const CELL: i64 = 50;

/// Deterministic geocoding: hashes the address onto the grid.
fn geocode(parts: &[Value]) -> (i64, i64) {
    let mut h = mmv_constraints::fxhash::FxHasher::default();
    for p in parts {
        p.hash(&mut h);
    }
    let bits = h.finish();
    let x = (bits % GRID as u64) as i64;
    let y = ((bits >> 32) % GRID as u64) as i64;
    (x, y)
}

fn point_record(x: i64, y: i64) -> Value {
    Value::record(vec![("x", Value::Int(x)), ("y", Value::Int(y))])
}

/// Squared Euclidean distance (avoids floating point entirely).
fn dist2(x1: i64, y1: i64, x2: i64, y2: i64) -> i64 {
    let (dx, dy) = (x1 - x2, y1 - y2);
    dx * dx + dy * dy
}

#[derive(Default)]
struct MapStore {
    /// Named landmarks on each map: map -> name -> (x, y).
    maps: FxHashMap<String, FxHashMap<String, (i64, i64)>>,
    /// Grid index per map: map -> (cell_x, cell_y) -> landmark names.
    grid: FxHashMap<String, FxHashMap<(i64, i64), Vec<String>>>,
    version: u64,
}

/// The `spatialdb` domain.
pub struct SpatialDomain {
    store: RwLock<MapStore>,
}

impl Default for SpatialDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl SpatialDomain {
    /// An empty spatial domain (no maps registered).
    pub fn new() -> Self {
        SpatialDomain {
            store: RwLock::new(MapStore::default()),
        }
    }

    /// Registers (or moves) a named landmark on a map; bumps the version.
    pub fn add_landmark(&self, map: &str, name: &str, x: i64, y: i64) {
        let mut s = write_clean(&self.store);
        s.maps
            .entry(map.to_string())
            .or_default()
            .insert(name.to_string(), (x, y));
        s.grid
            .entry(map.to_string())
            .or_default()
            .entry((x.div_euclid(CELL), y.div_euclid(CELL)))
            .or_default()
            .push(name.to_string());
        s.version += 1;
    }

    /// The coordinates an address geocodes to (handy for tests that need
    /// to place landmarks near/far from an address).
    pub fn geocode_address(num: i64, street: &str, city: &str) -> (i64, i64) {
        geocode(&[Value::Int(num), Value::str(street), Value::str(city)])
    }
}

fn int_arg(args: &[Value], i: usize) -> Option<i64> {
    args.get(i).and_then(|v| v.as_int())
}

fn str_arg(args: &[Value], i: usize) -> Option<&str> {
    args.get(i).and_then(|v| v.as_str())
}

impl Domain for SpatialDomain {
    fn name(&self) -> &str {
        "spatialdb"
    }

    fn call(&self, func: &str, args: &[Value]) -> ValueSet {
        match func {
            // locate_address(street_num, street_name, city) -> {point}
            "locate_address" => {
                let (Some(num), Some(street), Some(city)) =
                    (int_arg(args, 0), str_arg(args, 1), str_arg(args, 2))
                else {
                    return ValueSet::Empty;
                };
                let (x, y) = geocode(&[Value::Int(num), Value::str(street), Value::str(city)]);
                ValueSet::singleton(point_record(x, y))
            }
            // range(map, landmark, x, y, radius) -> {true} iff (x,y) lies
            // within radius of the landmark (the paper's
            // range('dcareamap', …, 100) idiom).
            "range" => {
                let (Some(map), Some(lm), Some(x), Some(y), Some(r)) = (
                    str_arg(args, 0),
                    str_arg(args, 1),
                    int_arg(args, 2),
                    int_arg(args, 3),
                    int_arg(args, 4),
                ) else {
                    return ValueSet::Empty;
                };
                let s = read_clean(&self.store);
                match s.maps.get(map).and_then(|m| m.get(lm)) {
                    Some(&(lx, ly)) if dist2(lx, ly, x, y) <= r * r => {
                        ValueSet::singleton(Value::Bool(true))
                    }
                    _ => ValueSet::Empty,
                }
            }
            // near(map, x, y, radius) -> names of landmarks within radius,
            // answered from the grid index.
            "near" => {
                let (Some(map), Some(x), Some(y), Some(r)) = (
                    str_arg(args, 0),
                    int_arg(args, 1),
                    int_arg(args, 2),
                    int_arg(args, 3),
                ) else {
                    return ValueSet::Empty;
                };
                let s = read_clean(&self.store);
                let (Some(grid), Some(points)) = (s.grid.get(map), s.maps.get(map)) else {
                    return ValueSet::Empty;
                };
                let mut found = Vec::new();
                let (clo_x, chi_x) = ((x - r).div_euclid(CELL), (x + r).div_euclid(CELL));
                let (clo_y, chi_y) = ((y - r).div_euclid(CELL), (y + r).div_euclid(CELL));
                for cx in clo_x..=chi_x {
                    for cy in clo_y..=chi_y {
                        if let Some(names) = grid.get(&(cx, cy)) {
                            for n in names {
                                if let Some(&(lx, ly)) = points.get(n) {
                                    if dist2(lx, ly, x, y) <= r * r {
                                        found.push(Value::str(n));
                                    }
                                }
                            }
                        }
                    }
                }
                ValueSet::finite(found)
            }
            // dist2(x1, y1, x2, y2) -> {squared distance}
            "dist2" => {
                let (Some(x1), Some(y1), Some(x2), Some(y2)) = (
                    int_arg(args, 0),
                    int_arg(args, 1),
                    int_arg(args, 2),
                    int_arg(args, 3),
                ) else {
                    return ValueSet::Empty;
                };
                ValueSet::singleton(Value::Int(dist2(x1, y1, x2, y2)))
            }
            _ => ValueSet::Empty,
        }
    }

    fn version(&self) -> u64 {
        read_clean(&self.store).version
    }

    fn functions(&self) -> Vec<&'static str> {
        vec!["locate_address", "range", "near", "dist2"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geocoding_is_deterministic() {
        let a = SpatialDomain::geocode_address(1600, "penn ave", "washington");
        let b = SpatialDomain::geocode_address(1600, "penn ave", "washington");
        let c = SpatialDomain::geocode_address(1601, "penn ave", "washington");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((0..GRID).contains(&a.0) && (0..GRID).contains(&a.1));
    }

    #[test]
    fn locate_address_call_matches_helper() {
        let d = SpatialDomain::new();
        let s = d.call(
            "locate_address",
            &[Value::int(10), Value::str("main st"), Value::str("dc")],
        );
        let (x, y) = SpatialDomain::geocode_address(10, "main st", "dc");
        assert_eq!(s, ValueSet::singleton(point_record(x, y)));
    }

    #[test]
    fn range_predicate() {
        let d = SpatialDomain::new();
        d.add_landmark("dcareamap", "dc", 500, 500);
        let hit = d.call(
            "range",
            &[
                Value::str("dcareamap"),
                Value::str("dc"),
                Value::int(530),
                Value::int(540),
                Value::int(100),
            ],
        );
        assert_eq!(hit, ValueSet::singleton(Value::Bool(true)));
        let miss = d.call(
            "range",
            &[
                Value::str("dcareamap"),
                Value::str("dc"),
                Value::int(900),
                Value::int(900),
                Value::int(100),
            ],
        );
        assert!(miss.is_empty());
    }

    #[test]
    fn near_uses_grid_index_correctly() {
        let d = SpatialDomain::new();
        d.add_landmark("m", "a", 100, 100);
        d.add_landmark("m", "b", 120, 100);
        d.add_landmark("m", "c", 900, 900);
        let s = d.call(
            "near",
            &[
                Value::str("m"),
                Value::int(105),
                Value::int(100),
                Value::int(30),
            ],
        );
        assert!(s.contains(&Value::str("a")));
        assert!(s.contains(&Value::str("b")));
        assert!(!s.contains(&Value::str("c")));
    }

    #[test]
    fn version_bumps_on_landmark_updates() {
        let d = SpatialDomain::new();
        let v0 = d.version();
        d.add_landmark("m", "a", 1, 1);
        assert!(d.version() > v0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "poisons the map lock on purpose")]
    fn poisoned_map_lock_recovers() {
        use std::sync::Arc;
        let d = Arc::new(SpatialDomain::new());
        d.add_landmark("m", "a", 100, 100);
        let d2 = d.clone();
        // Poison the store by panicking while holding the write guard.
        let _ = std::thread::spawn(move || {
            let _g = d2.store.write().unwrap();
            panic!("poison the map lock");
        })
        .join();
        assert!(d.store.is_poisoned());
        // Reads and writes keep working: the poison is cleared, not
        // propagated into every later domain call.
        let v0 = d.version();
        d.add_landmark("m", "b", 120, 100);
        assert!(d.version() > v0);
        let s = d.call(
            "near",
            &[
                Value::str("m"),
                Value::int(110),
                Value::int(100),
                Value::int(30),
            ],
        );
        assert!(s.contains(&Value::str("a")) && s.contains(&Value::str("b")));
    }
}
