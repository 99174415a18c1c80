//! The face-recognition domains: `facextract` and `facedb`.
//!
//! The paper's law-enforcement mediator (Example 1) calls a proprietary
//! pattern-recognition package. Substitution (DESIGN.md §5): surveillance
//! photos carry *synthetic face ids*; `segmentface` "extracts" them by
//! enumeration, producing `{file, origin}` records exactly like the
//! paper's `(<resultfile, origin>)` pairs; `matchface` compares the
//! underlying ids; `findface`/`findname` consult a mugshot registry. The
//! observable behaviour — changing set-valued functions over photo data —
//! is the same, which is all the maintenance algorithms depend on.
//!
//! Growing the photo set (`add_photo`) models the paper's update-of-the-
//! second-kind: "the surveillance data has been extended … hence the
//! domain call facextract:segmentface('surveillancedata') returns a set
//! of objects that are different from what was returned prior to the
//! update".

use crate::manager::Domain;
use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::{Value, ValueSet};
use mmv_obs::sync::{read_clean, write_clean};
use std::sync::{Arc, RwLock};

/// A synthetic face identity.
pub type FaceId = u64;

#[derive(Debug, Clone)]
struct Photo {
    name: String,
    faces: Vec<FaceId>,
}

#[derive(Debug, Default)]
struct FaceStore {
    /// Datasets of surveillance photos: dataset -> photos.
    datasets: FxHashMap<String, Vec<Photo>>,
    /// The mugshot registry: person name -> face id.
    mugshots: FxHashMap<String, FaceId>,
    /// Reverse registry: face id -> person name.
    names: FxHashMap<FaceId, String>,
    version: u64,
}

/// Shared state behind both face domains (they wrap one package in the
/// paper, so they share the photo/mugshot store here too).
#[derive(Clone, Default)]
pub struct FacePackage {
    store: Arc<RwLock<FaceStore>>,
}

/// The mugshot-file record produced by `segmentface`.
fn extraction_record(face: FaceId, origin: &str) -> Value {
    Value::record(vec![
        ("file", Value::Int(face as i64)),
        ("origin", Value::str(origin)),
    ])
}

impl FacePackage {
    /// An empty package.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a person's mugshot.
    pub fn register_person(&self, name: &str, face: FaceId) {
        let mut s = write_clean(&self.store);
        s.mugshots.insert(name.to_string(), face);
        s.names.insert(face, name.to_string());
        s.version += 1;
    }

    /// Adds a surveillance photo containing the given faces.
    pub fn add_photo(&self, dataset: &str, photo_name: &str, faces: &[FaceId]) {
        let mut s = write_clean(&self.store);
        s.datasets
            .entry(dataset.to_string())
            .or_default()
            .push(Photo {
                name: photo_name.to_string(),
                faces: faces.to_vec(),
            });
        s.version += 1;
    }

    /// Removes a photo by name; returns whether anything was removed.
    /// (Models e.g. "the photograph was a forgery".)
    pub fn remove_photo(&self, dataset: &str, photo_name: &str) -> bool {
        let mut s = write_clean(&self.store);
        let Some(photos) = s.datasets.get_mut(dataset) else {
            return false;
        };
        let before = photos.len();
        photos.retain(|p| p.name != photo_name);
        let removed = photos.len() != before;
        if removed {
            s.version += 1;
        }
        removed
    }

    /// Number of photos currently in a dataset.
    pub fn photo_count(&self, dataset: &str) -> usize {
        read_clean(&self.store)
            .datasets
            .get(dataset)
            .map_or(0, |p| p.len())
    }

    /// The `facextract` domain view of this package.
    pub fn extract_domain(&self) -> FaceExtractDomain {
        FaceExtractDomain {
            package: self.clone(),
        }
    }

    /// The `facedb` domain view of this package.
    pub fn db_domain(&self) -> FaceDbDomain {
        FaceDbDomain {
            package: self.clone(),
        }
    }
}

/// The `facextract` domain: face segmentation and matching.
pub struct FaceExtractDomain {
    package: FacePackage,
}

fn str_arg(args: &[Value], i: usize) -> Option<&str> {
    args.get(i).and_then(|v| v.as_str())
}

/// Pulls the face id out of either an extraction record or a bare int.
fn face_of(v: &Value) -> Option<FaceId> {
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::Record(_) => v
            .field("file")
            .and_then(|f| f.as_int())
            .and_then(|i| u64::try_from(i).ok()),
        _ => None,
    }
}

impl Domain for FaceExtractDomain {
    fn name(&self) -> &str {
        "facextract"
    }

    fn call(&self, func: &str, args: &[Value]) -> ValueSet {
        let s = read_clean(&self.package.store);
        match func {
            // segmentface(dataset) -> {file, origin} records for every
            // face in every photo of the dataset.
            "segmentface" => {
                let Some(dataset) = str_arg(args, 0) else {
                    return ValueSet::Empty;
                };
                let Some(photos) = s.datasets.get(dataset) else {
                    return ValueSet::Empty;
                };
                ValueSet::finite(
                    photos
                        .iter()
                        .flat_map(|p| p.faces.iter().map(move |&f| extraction_record(f, &p.name))),
                )
            }
            // matchface(f1, f2) -> {true} iff the faces are the same
            // person (same synthetic id).
            "matchface" => {
                let (Some(a), Some(b)) = (
                    args.first().and_then(face_of),
                    args.get(1).and_then(face_of),
                ) else {
                    return ValueSet::Empty;
                };
                if a == b {
                    ValueSet::singleton(Value::Bool(true))
                } else {
                    ValueSet::Empty
                }
            }
            _ => ValueSet::Empty,
        }
    }

    fn version(&self) -> u64 {
        read_clean(&self.package.store).version
    }

    fn functions(&self) -> Vec<&'static str> {
        vec!["segmentface", "matchface"]
    }
}

/// The `facedb` domain: the mugshot registry.
pub struct FaceDbDomain {
    package: FacePackage,
}

impl Domain for FaceDbDomain {
    fn name(&self) -> &str {
        "facedb"
    }

    fn call(&self, func: &str, args: &[Value]) -> ValueSet {
        let s = read_clean(&self.package.store);
        match func {
            // findface(person) -> {face id} if the person has a mugshot.
            "findface" => {
                let Some(person) = str_arg(args, 0) else {
                    return ValueSet::Empty;
                };
                match s.mugshots.get(person) {
                    Some(&f) => ValueSet::singleton(Value::Int(f as i64)),
                    None => ValueSet::Empty,
                }
            }
            // findname(face) -> {person name}.
            "findname" => {
                let Some(face) = args.first().and_then(face_of) else {
                    return ValueSet::Empty;
                };
                match s.names.get(&face) {
                    Some(n) => ValueSet::singleton(Value::str(n)),
                    None => ValueSet::Empty,
                }
            }
            _ => ValueSet::Empty,
        }
    }

    fn version(&self) -> u64 {
        read_clean(&self.package.store).version
    }

    fn functions(&self) -> Vec<&'static str> {
        vec!["findface", "findname"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> FacePackage {
        let p = FacePackage::new();
        p.register_person("don corleone", 1);
        p.register_person("john smith", 2);
        p.add_photo("surveillancedata", "img_001", &[1, 2]);
        p.add_photo("surveillancedata", "img_002", &[2]);
        p
    }

    #[test]
    fn segmentface_enumerates_faces_with_origins() {
        let p = setup();
        let d = p.extract_domain();
        let s = d.call("segmentface", &[Value::str("surveillancedata")]);
        let faces = s.enumerate(100).unwrap();
        assert_eq!(faces.len(), 3);
        assert!(faces
            .iter()
            .any(|f| f.field("origin") == Some(&Value::str("img_001"))));
    }

    #[test]
    fn matchface_compares_identities() {
        let p = setup();
        let d = p.extract_domain();
        let r1 = extraction_record(1, "img_001");
        let r2 = extraction_record(1, "img_009");
        let r3 = extraction_record(2, "img_001");
        assert!(!d.call("matchface", &[r1.clone(), r2]).is_empty());
        assert!(d.call("matchface", &[r1, r3]).is_empty());
    }

    #[test]
    fn mugshot_registry_roundtrip() {
        let p = setup();
        let db = p.db_domain();
        let f = db.call("findface", &[Value::str("don corleone")]);
        assert_eq!(f, ValueSet::singleton(Value::int(1)));
        let n = db.call("findname", &[Value::int(1)]);
        assert_eq!(n, ValueSet::singleton(Value::str("don corleone")));
        assert!(db.call("findface", &[Value::str("nobody")]).is_empty());
    }

    #[test]
    fn photo_growth_changes_segmentface_and_version() {
        let p = setup();
        let d = p.extract_domain();
        let before = d.call("segmentface", &[Value::str("surveillancedata")]);
        let v0 = d.version();
        p.add_photo("surveillancedata", "img_003", &[1]);
        let after = d.call("segmentface", &[Value::str("surveillancedata")]);
        assert!(d.version() > v0);
        assert_eq!(before.finite_len(), Some(3));
        assert_eq!(after.finite_len(), Some(4));
    }

    #[test]
    fn remove_photo_shrinks_results() {
        let p = setup();
        let d = p.extract_domain();
        assert!(p.remove_photo("surveillancedata", "img_002"));
        assert!(!p.remove_photo("surveillancedata", "img_002"));
        let s = d.call("segmentface", &[Value::str("surveillancedata")]);
        assert_eq!(s.finite_len(), Some(2));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "poisons the store lock on purpose"
    )]
    fn poisoned_face_lock_recovers() {
        let p = setup();
        let p2 = p.clone();
        let _ = std::thread::spawn(move || {
            let _g = p2.store.write().unwrap();
            panic!("poison the face lock");
        })
        .join();
        assert!(p.store.is_poisoned());
        // Both domain views and the mutation surface keep working.
        let d = p.extract_domain();
        let before = d.version();
        p.add_photo("surveillancedata", "img_003", &[1]);
        assert!(d.version() > before);
        let s = d.call("segmentface", &[Value::str("surveillancedata")]);
        assert_eq!(s.finite_len(), Some(4));
        let db = p.db_domain();
        assert_eq!(
            db.call("findname", &[Value::int(1)]),
            ValueSet::singleton(Value::str("don corleone"))
        );
    }
}
