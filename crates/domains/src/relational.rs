//! Relational domains: the stand-ins for the paper's PARADOX and DBASE
//! systems. A relational domain wraps a shared [`Catalog`] and exposes the
//! select/project calls the paper's mediator clauses use, e.g.
//! `in(A, paradox:select_eq('phonebook', "name", X))`.

use crate::manager::Domain;
use mmv_constraints::{Value, ValueSet};
use mmv_obs::sync::read_clean;
use mmv_storage::Catalog;
use std::sync::{Arc, RwLock};

/// A relational database exposed as a mediator domain. Several domains
/// (e.g. `paradox` and `dbase`) may wrap distinct catalogs, mirroring the
/// paper's two separate relational systems.
pub struct RelationalDomain {
    name: String,
    catalog: Arc<RwLock<Catalog>>,
}

impl RelationalDomain {
    /// Wraps `catalog` as the domain called `name`.
    pub fn new(name: &str, catalog: Arc<RwLock<Catalog>>) -> Self {
        RelationalDomain {
            name: name.to_string(),
            catalog,
        }
    }

    /// The shared catalog handle (for mutation by tests/benchmarks).
    pub fn catalog(&self) -> Arc<RwLock<Catalog>> {
        self.catalog.clone()
    }
}

fn str_arg(args: &[Value], i: usize) -> Option<&str> {
    args.get(i).and_then(|v| v.as_str())
}

impl Domain for RelationalDomain {
    fn name(&self) -> &str {
        &self.name
    }

    fn call(&self, func: &str, args: &[Value]) -> ValueSet {
        let catalog = read_clean(&self.catalog);
        match func {
            // select_eq(table, column, key) -> the matching row records.
            "select_eq" => {
                let (Some(table), Some(col), Some(key)) =
                    (str_arg(args, 0), str_arg(args, 1), args.get(2))
                else {
                    return ValueSet::Empty;
                };
                match catalog.table(table) {
                    Ok(t) => ValueSet::finite(t.select_eq(col, key)),
                    Err(_) => ValueSet::Empty,
                }
            }
            // select_proj_eq(table, column, key, out_column) -> projected values.
            "select_proj_eq" => {
                let (Some(table), Some(col), Some(key), Some(out)) = (
                    str_arg(args, 0),
                    str_arg(args, 1),
                    args.get(2),
                    str_arg(args, 3),
                ) else {
                    return ValueSet::Empty;
                };
                match catalog.table(table) {
                    Ok(t) => ValueSet::finite(
                        t.select_eq(col, key)
                            .iter()
                            .filter_map(|r| r.field(out).cloned()),
                    ),
                    Err(_) => ValueSet::Empty,
                }
            }
            // tuples(table) -> every row record.
            "tuples" => {
                let Some(table) = str_arg(args, 0) else {
                    return ValueSet::Empty;
                };
                match catalog.table(table) {
                    Ok(t) => ValueSet::finite(t.scan().map(|(_, r)| r.clone())),
                    Err(_) => ValueSet::Empty,
                }
            }
            // project(table, column) -> that column's values.
            "project" => {
                let (Some(table), Some(col)) = (str_arg(args, 0), str_arg(args, 1)) else {
                    return ValueSet::Empty;
                };
                match catalog.table(table) {
                    Ok(t) => ValueSet::finite(t.project(col)),
                    Err(_) => ValueSet::Empty,
                }
            }
            _ => ValueSet::Empty,
        }
    }

    fn version(&self) -> u64 {
        read_clean(&self.catalog).version()
    }

    fn functions(&self) -> Vec<&'static str> {
        vec!["select_eq", "select_proj_eq", "tuples", "project"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_storage::{ColumnType, Schema};

    fn setup() -> (RelationalDomain, Arc<RwLock<Catalog>>) {
        let mut cat = Catalog::new();
        cat.create_table(
            "phonebook",
            Schema::new(vec![("name", ColumnType::Str), ("city", ColumnType::Str)]),
        )
        .unwrap();
        cat.insert("phonebook", &[Value::str("john smith"), Value::str("dc")])
            .unwrap();
        cat.insert("phonebook", &[Value::str("jane doe"), Value::str("nyc")])
            .unwrap();
        let cat = Arc::new(RwLock::new(cat));
        (RelationalDomain::new("paradox", cat.clone()), cat)
    }

    #[test]
    fn select_eq_returns_records() {
        let (d, _) = setup();
        let s = d.call(
            "select_eq",
            &[
                Value::str("phonebook"),
                Value::str("name"),
                Value::str("john smith"),
            ],
        );
        let rows = s.enumerate(10).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].field("city"), Some(&Value::str("dc")));
    }

    #[test]
    fn version_tracks_catalog() {
        let (d, cat) = setup();
        let v0 = d.version();
        mmv_obs::sync::write_clean(&cat)
            .insert("phonebook", &[Value::str("x"), Value::str("y")])
            .unwrap();
        assert!(d.version() > v0);
    }

    #[test]
    fn projection_call() {
        let (d, _) = setup();
        let s = d.call("project", &[Value::str("phonebook"), Value::str("city")]);
        assert!(s.contains(&Value::str("dc")));
        assert!(s.contains(&Value::str("nyc")));
        assert_eq!(s.finite_len(), Some(2));
    }

    #[test]
    fn select_proj_eq_projects() {
        let (d, _) = setup();
        let s = d.call(
            "select_proj_eq",
            &[
                Value::str("phonebook"),
                Value::str("name"),
                Value::str("jane doe"),
                Value::str("city"),
            ],
        );
        assert_eq!(s, ValueSet::singleton(Value::str("nyc")));
    }

    #[test]
    fn bad_table_or_args_empty() {
        let (d, _) = setup();
        assert!(d
            .call(
                "select_eq",
                &[Value::str("ghost"), Value::str("x"), Value::int(1)]
            )
            .is_empty());
        assert!(d.call("tuples", &[Value::int(9)]).is_empty());
    }
}
