//! The synthetic law-enforcement world of the paper's running example
//! (Example 1 / Figure 1): face-recognition package, phone-book database,
//! spatial system, employee database, and the three mediator clauses —
//! all generated at a configurable scale.

use mmv_constraints::Value;
use mmv_core::parser::parse_program;
use mmv_core::ConstrainedDatabase;
use mmv_domains::{DomainManager, FacePackage, RelationalDomain, SpatialDomain};
use mmv_storage::{Catalog, ColumnType, Schema};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, RwLock};

/// Scale parameters for the synthetic world.
#[derive(Debug, Clone, Copy)]
pub struct LawEnfSpec {
    /// Number of registered people (mugshot database size).
    pub people: usize,
    /// Number of surveillance photos.
    pub photos: usize,
    /// Faces per photo.
    pub faces_per_photo: usize,
    /// Fraction of people living within range of DC (0.0–1.0).
    pub near_dc_fraction: f64,
    /// Fraction of people employed by ABC Corp.
    pub employee_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

/// The generated world: domains registered in a manager plus the
/// mediator database.
pub struct LawEnfWorld {
    /// The domain manager with all five domains registered.
    pub manager: DomainManager,
    /// Handle to the face package (for photo-set updates).
    pub face: FacePackage,
    /// Handle to the employee catalog (dbase domain).
    pub dbase: Arc<RwLock<Catalog>>,
    /// The mediator (clauses (1)–(3) of the paper).
    pub db: ConstrainedDatabase,
    /// The person of interest ("don", always person 0).
    pub target: String,
}

/// Person `i`'s name.
pub fn person_name(i: usize) -> String {
    if i == 0 {
        "don".to_string()
    } else {
        format!("person{i}")
    }
}

/// Builds the world.
pub fn build(spec: &LawEnfSpec) -> LawEnfWorld {
    let mut rng = SmallRng::seed_from_u64(spec.seed);

    // --- face package: mugshots + surveillance photos -------------------
    let face = FacePackage::new();
    for i in 0..spec.people {
        face.register_person(&person_name(i), i as u64 + 1);
    }
    for p in 0..spec.photos {
        let mut faces: Vec<u64> = vec![1]; // the target appears everywhere
        while faces.len() < spec.faces_per_photo.max(1) {
            let f = rng.gen_range(0..spec.people) as u64 + 1;
            if !faces.contains(&f) {
                faces.push(f);
            }
        }
        face.add_photo("surveillancedata", &format!("img{p:04}"), &faces);
    }

    // --- phone book (paradox) with geocodable addresses ------------------
    let mut phonebook = Catalog::new();
    phonebook
        .create_table(
            "phonebook",
            Schema::new(vec![
                ("name", ColumnType::Str),
                ("streetnum", ColumnType::Int),
                ("streetname", ColumnType::Str),
                ("cityname", ColumnType::Str),
            ]),
        )
        .expect("fresh catalog");
    // --- spatial: a DC landmark; near/far addresses chosen by geocode ----
    let spatial = SpatialDomain::new();
    let (dcx, dcy) = (500, 500);
    spatial.add_landmark("dcareamap", "dc", dcx, dcy);
    for i in 0..spec.people {
        let near = (i as f64 / spec.people.max(1) as f64) < spec.near_dc_fraction;
        // Search for an address whose deterministic geocode lands
        // near/far as required.
        let mut num = rng.gen_range(1..10_000);
        loop {
            let (x, y) = SpatialDomain::geocode_address(num, "main st", "washington");
            let d2 = (x - dcx).pow(2) + (y - dcy).pow(2);
            let is_near = d2 <= 100 * 100;
            if is_near == near {
                break;
            }
            num += 1;
        }
        phonebook
            .insert(
                "phonebook",
                &[
                    Value::str(&person_name(i)),
                    Value::Int(num),
                    Value::str("main st"),
                    Value::str("washington"),
                ],
            )
            .expect("schema ok");
    }
    phonebook
        .table_config("phonebook")
        .expect("table exists")
        .create_index("name");
    let paradox = Arc::new(RwLock::new(phonebook));

    // --- employees (dbase) ----------------------------------------------
    let mut empl = Catalog::new();
    empl.create_table("empl_abc", Schema::new(vec![("name", ColumnType::Str)]))
        .expect("fresh catalog");
    for i in 0..spec.people {
        if rng.gen_bool(spec.employee_fraction.clamp(0.0, 1.0)) || i == 1 {
            empl.insert("empl_abc", &[Value::str(&person_name(i))])
                .expect("schema ok");
        }
    }
    empl.table_config("empl_abc")
        .expect("table exists")
        .create_index("name");
    let dbase = Arc::new(RwLock::new(empl));

    // --- manager ----------------------------------------------------------
    let mut manager = DomainManager::new();
    manager.register(Arc::new(face.extract_domain()));
    manager.register(Arc::new(face.db_domain()));
    manager.register(Arc::new(RelationalDomain::new("paradox", paradox)));
    manager.register(Arc::new(RelationalDomain::new("dbase", dbase.clone())));
    manager.register(Arc::new(spatial));

    // --- the mediator (paper clauses (1)-(3)) ------------------------------
    let src = r#"
        % (1) Y was seen with X on some surveillance photo.
        seenwith(X, Y) <-
            in(P1, facextract:segmentface(surveillancedata)) &
            in(P2, facextract:segmentface(surveillancedata)) &
            P1.origin = P2.origin & P1 != P2 &
            in(F, facedb:findface(X)) &
            in(true, facextract:matchface(P1, F)) &
            in(Y, facedb:findname(P2)).
        % (2) … and Y lives within 100 units of DC.
        swlndc(X, Y) <-
            in(A, paradox:select_eq(phonebook, name, Y)) &
            in(Pt, spatialdb:locate_address(A.streetnum, A.streetname, A.cityname)) &
            in(true, spatialdb:range(dcareamap, dc, Pt.x, Pt.y, 100))
            || seenwith(X, Y).
        % (3) … and Y works for ABC Corp.
        suspect(X, Y) <-
            in(T, dbase:select_eq(empl_abc, name, Y))
            || swlndc(X, Y).
    "#;
    let db = parse_program(src).expect("mediator parses").db;

    LawEnfWorld {
        manager,
        face,
        dbase,
        db,
        target: person_name(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::SolverConfig;
    use mmv_core::{fixpoint, FixpointConfig, Operator, SupportMode};

    #[test]
    fn world_materializes_and_answers_suspects() {
        let spec = LawEnfSpec {
            people: 6,
            photos: 4,
            faces_per_photo: 3,
            near_dc_fraction: 1.0,
            employee_fraction: 1.0,
            seed: 11,
        };
        let world = build(&spec);
        let (view, _) = fixpoint(
            &world.db,
            &world.manager,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        // Non-ground materialization: exactly one entry per clause.
        assert_eq!(view.len(), 3);
        let suspects = view
            .query(
                "suspect",
                &[Some(Value::str(&world.target)), None],
                &world.manager,
                &SolverConfig::default(),
            )
            .unwrap();
        // Everyone is near DC and employed; everyone except the target
        // who shares a photo with him is a suspect.
        assert!(!suspects.is_empty());
        assert!(suspects.iter().all(|t| t[1] != Value::str(&world.target)));
    }

    #[test]
    fn suspects_respect_employment_and_distance() {
        let spec = LawEnfSpec {
            people: 8,
            photos: 6,
            faces_per_photo: 4,
            near_dc_fraction: 0.0, // nobody near DC
            employee_fraction: 1.0,
            seed: 3,
        };
        let world = build(&spec);
        let (view, _) = fixpoint(
            &world.db,
            &world.manager,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        let suspects = view
            .query(
                "suspect",
                &[Some(Value::str(&world.target)), None],
                &world.manager,
                &SolverConfig::default(),
            )
            .unwrap();
        assert!(suspects.is_empty(), "nobody lives near DC");
        // But seenwith pairs exist.
        let seen = view
            .query(
                "seenwith",
                &[Some(Value::str(&world.target)), None],
                &world.manager,
                &SolverConfig::default(),
            )
            .unwrap();
        assert!(!seen.is_empty());
    }

    #[test]
    fn photo_growth_enlarges_suspect_pool() {
        let spec = LawEnfSpec {
            people: 6,
            photos: 1,
            faces_per_photo: 2,
            near_dc_fraction: 1.0,
            employee_fraction: 1.0,
            seed: 5,
        };
        let world = build(&spec);
        let (view, _) = fixpoint(
            &world.db,
            &world.manager,
            Operator::Wp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        let before = view
            .query(
                "seenwith",
                &[Some(Value::str(&world.target)), None],
                &world.manager,
                &SolverConfig::default(),
            )
            .unwrap()
            .len();
        // Add a photo with the target and two new companions.
        world.face.add_photo("surveillancedata", "imgX", &[1, 5, 6]);
        let after = view
            .query(
                "seenwith",
                &[Some(Value::str(&world.target)), None],
                &world.manager,
                &SolverConfig::default(),
            )
            .unwrap()
            .len();
        assert!(after > before, "W_P view sees the new photo at query time");
    }
}
