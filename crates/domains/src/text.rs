//! A text/file domain: the stand-in for the paper's "(structured) files"
//! and text-database sources. Documents are registered in memory; the
//! domain exposes keyword search and membership predicates.

use crate::manager::Domain;
use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::{Value, ValueSet};
use mmv_obs::sync::{read_clean, write_clean};
use std::sync::RwLock;

#[derive(Default)]
struct DocStore {
    docs: FxHashMap<String, String>,
    /// Inverted index: word -> document names.
    inverted: FxHashMap<String, Vec<String>>,
    version: u64,
}

/// The `textdb` domain.
pub struct TextDomain {
    store: RwLock<DocStore>,
}

impl Default for TextDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl TextDomain {
    /// An empty text database.
    pub fn new() -> Self {
        TextDomain {
            store: RwLock::new(DocStore::default()),
        }
    }

    /// Registers (or replaces) a document and indexes its words.
    pub fn add_doc(&self, name: &str, content: &str) {
        let mut s = write_clean(&self.store);
        if s.docs.contains_key(name) {
            // Drop stale index entries for a replaced document.
            for names in s.inverted.values_mut() {
                names.retain(|n| n != name);
            }
        }
        for word in content.split_whitespace() {
            let w = word.to_lowercase();
            let names = s.inverted.entry(w).or_default();
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
        s.docs.insert(name.to_string(), content.to_string());
        s.version += 1;
    }
}

fn str_arg(args: &[Value], i: usize) -> Option<&str> {
    args.get(i).and_then(|v| v.as_str())
}

impl Domain for TextDomain {
    fn name(&self) -> &str {
        "textdb"
    }

    fn call(&self, func: &str, args: &[Value]) -> ValueSet {
        let s = read_clean(&self.store);
        match func {
            // contains(doc, word) -> {true} iff the word occurs.
            "contains" => {
                let (Some(doc), Some(word)) = (str_arg(args, 0), str_arg(args, 1)) else {
                    return ValueSet::Empty;
                };
                match s.inverted.get(&word.to_lowercase()) {
                    Some(names) if names.iter().any(|n| n == doc) => {
                        ValueSet::singleton(Value::Bool(true))
                    }
                    _ => ValueSet::Empty,
                }
            }
            // docs_with(word) -> names of documents containing the word.
            "docs_with" => {
                let Some(word) = str_arg(args, 0) else {
                    return ValueSet::Empty;
                };
                match s.inverted.get(&word.to_lowercase()) {
                    Some(names) => ValueSet::finite(names.iter().map(|n| Value::str(n))),
                    None => ValueSet::Empty,
                }
            }
            // word_count(doc) -> {number of words}.
            "word_count" => {
                let Some(doc) = str_arg(args, 0) else {
                    return ValueSet::Empty;
                };
                match s.docs.get(doc) {
                    Some(c) => ValueSet::singleton(Value::Int(c.split_whitespace().count() as i64)),
                    None => ValueSet::Empty,
                }
            }
            _ => ValueSet::Empty,
        }
    }

    fn version(&self) -> u64 {
        read_clean(&self.store).version
    }

    fn functions(&self) -> Vec<&'static str> {
        vec!["contains", "docs_with", "word_count"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_search() {
        let d = TextDomain::new();
        d.add_doc("report1", "suspect seen near the docks");
        d.add_doc("report2", "nothing to report");
        let s = d.call("docs_with", &[Value::str("suspect")]);
        assert_eq!(s, ValueSet::singleton(Value::str("report1")));
        assert!(!d
            .call("contains", &[Value::str("report1"), Value::str("DOCKS")])
            .is_empty());
        assert!(d
            .call("contains", &[Value::str("report2"), Value::str("docks")])
            .is_empty());
    }

    #[test]
    fn word_count_and_versioning() {
        let d = TextDomain::new();
        let v0 = d.version();
        d.add_doc("a", "one two three");
        assert!(d.version() > v0);
        assert_eq!(
            d.call("word_count", &[Value::str("a")]),
            ValueSet::singleton(Value::int(3))
        );
    }

    #[test]
    fn replacing_doc_reindexes() {
        let d = TextDomain::new();
        d.add_doc("a", "alpha beta");
        d.add_doc("a", "gamma");
        assert!(d.call("docs_with", &[Value::str("alpha")]).is_empty());
        assert!(!d.call("docs_with", &[Value::str("gamma")]).is_empty());
    }

    #[test]
    fn poisoned_doc_lock_recovers() {
        use std::sync::Arc;
        let d = Arc::new(TextDomain::new());
        d.add_doc("a", "alpha beta");
        let d2 = d.clone();
        let _ = std::thread::spawn(move || {
            let _g = d2.store.write().unwrap();
            panic!("poison the doc lock");
        })
        .join();
        assert!(d.store.is_poisoned());
        let v0 = d.version();
        d.add_doc("b", "gamma");
        assert!(d.version() > v0);
        assert!(!d.call("docs_with", &[Value::str("alpha")]).is_empty());
        assert!(!d.call("docs_with", &[Value::str("gamma")]).is_empty());
    }
}
