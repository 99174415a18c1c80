//! Constrained databases (mediators): numbered clauses of the form
//! `A ← D1 ∧ … ∧ Dm ‖ A1, …, An` (paper §2.1).

use crate::bounds::{ArgBounds, Interval, IntervalIndex};
use mmv_constraints::fxhash::{FxHashMap, FxHashSet};
use mmv_constraints::{Constraint, Term, Var, VarGen};
use std::fmt;
use std::sync::Arc;

/// The number of a clause within its database (the paper's `Cn(C)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClauseId(pub usize);

impl fmt::Display for ClauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A body atom `Ai(t⃗i)` (ordinary, non-constraint).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BodyAtom {
    /// Predicate name.
    pub pred: Arc<str>,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl BodyAtom {
    /// Builds a body atom.
    pub fn new(pred: &str, args: Vec<Term>) -> Self {
        BodyAtom {
            pred: Arc::from(pred),
            args,
        }
    }
}

impl fmt::Display for BodyAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A clause `head(t⃗0) ← φ0 ‖ A1(t⃗1), …, An(t⃗n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// Head predicate.
    pub head_pred: Arc<str>,
    /// Head argument terms `t⃗0`.
    pub head_args: Vec<Term>,
    /// The constraint part `φ0` (DCA-atoms, equalities, …).
    pub constraint: Constraint,
    /// The ordinary body atoms.
    pub body: Vec<BodyAtom>,
}

impl Clause {
    /// Builds a clause.
    pub fn new(
        head_pred: &str,
        head_args: Vec<Term>,
        constraint: Constraint,
        body: Vec<BodyAtom>,
    ) -> Self {
        Clause {
            head_pred: Arc::from(head_pred),
            head_args,
            constraint,
            body,
        }
    }

    /// A constrained fact (empty body).
    pub fn fact(head_pred: &str, head_args: Vec<Term>, constraint: Constraint) -> Self {
        Clause::new(head_pred, head_args, constraint, vec![])
    }

    /// All variables of the clause, deduplicated in occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for t in &self.head_args {
            t.collect_vars(&mut out);
        }
        for l in &self.constraint.lits {
            l.collect_vars(&mut out);
        }
        for a in &self.body {
            for t in &a.args {
                t.collect_vars(&mut out);
            }
        }
        let mut seen = mmv_constraints::fxhash::FxHashSet::default();
        out.retain(|v| seen.insert(*v));
        out
    }

    /// Standardizes the clause apart with fresh variables.
    pub fn rename(&self, gen: &mut VarGen) -> Clause {
        let mut map: FxHashMap<Var, Var> = FxHashMap::default();
        Clause {
            head_pred: self.head_pred.clone(),
            head_args: self
                .head_args
                .iter()
                .map(|t| t.rename_into(&mut map, gen))
                .collect(),
            constraint: self.constraint.rename_into(&mut map, gen),
            body: self
                .body
                .iter()
                .map(|a| BodyAtom {
                    pred: a.pred.clone(),
                    args: a
                        .args
                        .iter()
                        .map(|t| t.rename_into(&mut map, gen))
                        .collect(),
                })
                .collect(),
        }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.head_pred)?;
        for (i, a) in self.head_args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
        if !self.constraint.is_truth() {
            write!(f, " <- {}", self.constraint)?;
        }
        if !self.body.is_empty() {
            if self.constraint.is_truth() {
                write!(f, " <-")?;
            }
            write!(f, " || ")?;
            for (i, a) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
        }
        write!(f, ".")
    }
}

/// A constrained database: an ordered, numbered set of clauses.
///
/// Clause numbers are normally positional (`ClauseId(k)` is the `k`-th
/// pushed clause); the deletion rewrites build databases that keep the
/// *original* numbers of the clauses they retain
/// ([`ConstrainedDatabase::push_numbered`]).
#[derive(Debug, Clone, Default)]
pub struct ConstrainedDatabase {
    clauses: Vec<Clause>,
    /// The number of each clause, parallel to `clauses`, strictly
    /// ascending. Identity (`numbers[k] == ClauseId(k)`) unless clauses
    /// were pushed under explicit numbers.
    numbers: Vec<ClauseId>,
    /// Clause ids by head predicate, for head-indexed access.
    by_head: FxHashMap<Arc<str>, Vec<ClauseId>>,
    /// The rules (clauses with a body) by body predicate: where each
    /// rule reading the predicate sits in `clauses`, ascending, once per
    /// rule however often its body reads the predicate.
    by_body: FxHashMap<Arc<str>, Vec<usize>>,
    /// The fact clauses (empty bodies) by head predicate.
    facts: FxHashMap<Arc<str>, Facts>,
    /// First variable id guaranteed unused by any clause.
    var_watermark: u32,
}

/// One head predicate's fact clauses: how many there are and, per head
/// argument position, their ids (`ClauseId.0`) filed by the bound of
/// that argument under the fact's constraint (see [`crate::bounds`]).
#[derive(Debug, Clone, Default)]
struct Facts {
    count: usize,
    by_position: Vec<IntervalIndex>,
}

impl ConstrainedDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from clauses.
    pub fn from_clauses<I: IntoIterator<Item = Clause>>(clauses: I) -> Self {
        let mut db = Self::new();
        for c in clauses {
            db.push(c);
        }
        db
    }

    /// Appends a clause, returning its id (one past the last number in
    /// use, so numbers stay strictly ascending).
    pub fn push(&mut self, clause: Clause) -> ClauseId {
        let id = ClauseId(self.numbers.last().map_or(0, |c| c.0 + 1));
        self.push_numbered(id, clause);
        id
    }

    /// Appends a clause under an explicit number (used by the deletion
    /// rewrites to preserve original numbering).
    /// Numbers must arrive strictly ascending.
    pub fn push_numbered(&mut self, id: ClauseId, clause: Clause) {
        assert!(
            self.numbers.last().is_none_or(|c| c.0 < id.0),
            "clause numbers must be strictly ascending"
        );
        for v in clause.vars() {
            self.var_watermark = self.var_watermark.max(v.0 + 1);
        }
        self.by_head
            .entry(clause.head_pred.clone())
            .or_default()
            .push(id);
        if clause.body.is_empty() {
            let facts = self.facts.entry(clause.head_pred.clone()).or_default();
            facts.count += 1;
            let arity = clause.head_args.len();
            if facts.by_position.len() < arity {
                facts.by_position.resize_with(arity, IntervalIndex::default);
            }
            for (p, t) in clause.head_args.iter().enumerate() {
                facts.by_position[p].insert(Interval::filed(t, &clause.constraint), id.0);
            }
        } else {
            let at = self.clauses.len();
            for b in &clause.body {
                let rules = self.by_body.entry(b.pred.clone()).or_default();
                if rules.last() != Some(&at) {
                    rules.push(at);
                }
            }
        }
        self.numbers.push(id);
        self.clauses.push(clause);
    }

    /// The clause with the given id. Panics if the database does not
    /// contain it (possible only under explicit numbering).
    pub fn clause(&self, id: ClauseId) -> &Clause {
        // Identity numbering (the common case) indexes directly; explicit
        // numbering falls back to binary search over the (ascending)
        // numbers.
        if self.numbers.get(id.0) == Some(&id) {
            return &self.clauses[id.0];
        }
        let idx = self
            .numbers
            .binary_search(&id)
            .unwrap_or_else(|_| panic!("clause {id} not in this database"));
        &self.clauses[idx]
    }

    /// All clauses with their ids.
    pub fn clauses(&self) -> impl Iterator<Item = (ClauseId, &Clause)> {
        self.numbers
            .iter()
            .zip(&self.clauses)
            .map(|(&id, c)| (id, c))
    }

    /// The rules (clauses with a body) with their ids, in database
    /// order.
    pub fn rules(&self) -> impl Iterator<Item = (ClauseId, &Clause)> {
        self.clauses().filter(|(_, c)| !c.body.is_empty())
    }

    /// Crate-internal: the rules whose body reads one of `preds`, each
    /// once, in database order — the rules a round whose delta holds
    /// `preds` can fire, found through the body-predicate index without
    /// walking the rest of the program.
    pub(crate) fn rules_reading<'a>(
        &self,
        preds: impl IntoIterator<Item = &'a str>,
    ) -> impl Iterator<Item = (ClauseId, &Clause)> {
        let mut at: Vec<usize> = preds
            .into_iter()
            .filter_map(|p| self.by_body.get(p))
            .flatten()
            .copied()
            .collect();
        at.sort_unstable();
        at.dedup();
        at.into_iter().map(|k| (self.numbers[k], &self.clauses[k]))
    }

    /// Crate-internal: the rules reachable upward from `preds` — those
    /// reading one of them, then those reading a head of a rule already
    /// reached, and so on — each once, in database order. Only these can
    /// fire in a propagation that starts from entries of `preds`.
    pub(crate) fn rules_above<'a>(
        &self,
        preds: impl IntoIterator<Item = &'a str>,
    ) -> Vec<(ClauseId, &Clause)> {
        let mut seen: FxHashSet<&str> = FxHashSet::default();
        let mut todo: Vec<&str> = preds.into_iter().filter(|p| seen.insert(p)).collect();
        let mut at: Vec<usize> = Vec::new();
        while let Some(p) = todo.pop() {
            for &k in self.by_body.get(p).into_iter().flatten() {
                at.push(k);
                let head = self.clauses[k].head_pred.as_ref();
                if seen.insert(head) {
                    todo.push(head);
                }
            }
        }
        at.sort_unstable();
        at.dedup();
        at.into_iter()
            .map(|k| (self.numbers[k], &self.clauses[k]))
            .collect()
    }

    /// Crate-internal: the fact clauses of `pred` whose head bounds meet
    /// `bounds`, in ascending id order; the facts visited are added to
    /// `selected`. The lookup goes to the interval index of the position
    /// `bounds` pins or holds to the narrowest closed interval; with no
    /// such position every fact of `pred` is visited.
    pub(crate) fn facts_meeting(
        &self,
        pred: &str,
        bounds: &ArgBounds,
        selected: &mut usize,
    ) -> Vec<ClauseId> {
        let Some(facts) = self.facts.get(pred) else {
            return Vec::new();
        };
        let mut ids: Vec<ClauseId> = match bounds.narrowest(|_| true) {
            Some((p, at)) => {
                let mut found = Vec::new();
                if let Some(index) = facts.by_position.get(p) {
                    index.meeting(at, &mut found);
                }
                found.into_iter().map(ClauseId).collect()
            }
            None => self
                .clauses_for_head(pred)
                .iter()
                .copied()
                .filter(|&id| self.clause(id).body.is_empty())
                .collect(),
        };
        *selected += ids.len();
        ids.retain(|&id| {
            let fact = self.clause(id);
            bounds.meets(&fact.head_args, &fact.constraint)
        });
        ids.sort_unstable();
        ids
    }

    /// Crate-internal: the number of fact clauses of `pred`.
    pub(crate) fn fact_count(&self, pred: &str) -> usize {
        self.facts.get(pred).map_or(0, |f| f.count)
    }

    /// Ids of clauses whose head predicate is `pred`.
    pub fn clauses_for_head(&self, pred: &str) -> &[ClauseId] {
        self.by_head.get(pred).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the database has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// A variable generator guaranteed to produce variables unused by any
    /// clause of this database.
    pub fn fresh_gen(&self) -> VarGen {
        VarGen::starting_at(self.var_watermark)
    }

    /// Head predicates (intensional and fact predicates alike), sorted.
    pub fn predicates(&self) -> Vec<Arc<str>> {
        let mut ps: Vec<Arc<str>> = self.by_head.keys().cloned().collect();
        ps.sort();
        ps
    }

    /// Static sanity checks: inconsistent predicate arities (across heads
    /// and body uses) and body predicates with no defining clause. These
    /// are the mistakes a hand-written mediator most often contains; none
    /// is fatal (an undefined body predicate simply never matches), so
    /// they are reported rather than rejected.
    pub fn validate(&self) -> Vec<ValidationIssue> {
        let mut issues = Vec::new();
        let mut arity: FxHashMap<Arc<str>, (usize, ClauseId)> = FxHashMap::default();
        let mut check =
            |pred: &Arc<str>, len: usize, cid: ClauseId, issues: &mut Vec<ValidationIssue>| {
                match arity.get(pred) {
                    Some(&(expected, first)) if expected != len => {
                        issues.push(ValidationIssue::ArityMismatch {
                            pred: pred.clone(),
                            expected,
                            first_seen_in: first,
                            got: len,
                            clause: cid,
                        });
                    }
                    Some(_) => {}
                    None => {
                        arity.insert(pred.clone(), (len, cid));
                    }
                }
            };
        for (cid, clause) in self.clauses() {
            check(&clause.head_pred, clause.head_args.len(), cid, &mut issues);
            for b in &clause.body {
                check(&b.pred, b.args.len(), cid, &mut issues);
            }
        }
        for (cid, clause) in self.clauses() {
            for b in &clause.body {
                if self.clauses_for_head(&b.pred).is_empty() {
                    issues.push(ValidationIssue::UndefinedBodyPredicate {
                        pred: b.pred.clone(),
                        clause: cid,
                    });
                }
            }
        }
        issues
    }
}

/// A static problem found by [`ConstrainedDatabase::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationIssue {
    /// A predicate is used with two different arities.
    ArityMismatch {
        /// The predicate.
        pred: Arc<str>,
        /// The arity first seen.
        expected: usize,
        /// Where it was first seen.
        first_seen_in: ClauseId,
        /// The conflicting arity.
        got: usize,
        /// Where the conflict occurs.
        clause: ClauseId,
    },
    /// A body atom references a predicate no clause defines.
    UndefinedBodyPredicate {
        /// The predicate.
        pred: Arc<str>,
        /// The clause whose body references it.
        clause: ClauseId,
    },
}

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationIssue::ArityMismatch {
                pred,
                expected,
                first_seen_in,
                got,
                clause,
            } => write!(
                f,
                "predicate {pred:?} used with arity {got} in clause {clause} \
                 but arity {expected} in clause {first_seen_in}"
            ),
            ValidationIssue::UndefinedBodyPredicate { pred, clause } => write!(
                f,
                "clause {clause} references predicate {pred:?}, which no clause defines"
            ),
        }
    }
}

impl fmt::Display for ConstrainedDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, c) in self.clauses() {
            writeln!(f, "% clause {id}")?;
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::CmpOp;

    fn x() -> Term {
        Term::var(Var(0))
    }

    /// The constrained database of the paper's Example 5.
    pub(crate) fn example5() -> ConstrainedDatabase {
        ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "A",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Le, Term::int(3)),
            ),
            Clause::new(
                "A",
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new("B", vec![x()])],
            ),
            Clause::fact(
                "B",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Le, Term::int(5)),
            ),
            Clause::new(
                "C",
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new("A", vec![x()])],
            ),
        ])
    }

    #[test]
    fn clause_numbering_and_head_index() {
        let db = example5();
        assert_eq!(db.len(), 4);
        assert_eq!(db.clauses_for_head("A"), &[ClauseId(0), ClauseId(1)]);
        assert_eq!(db.clauses_for_head("C"), &[ClauseId(3)]);
        assert!(db.clauses_for_head("Z").is_empty());
    }

    #[test]
    fn rules_are_indexed_by_body_predicate() {
        let mut db = example5();
        // D reads A twice and B once: it is listed once per predicate.
        db.push(Clause::new(
            "D",
            vec![x()],
            Constraint::truth(),
            vec![
                BodyAtom::new("A", vec![x()]),
                BodyAtom::new("B", vec![x()]),
                BodyAtom::new("A", vec![x()]),
            ],
        ));
        let ids = |rules: Vec<(ClauseId, &Clause)>| -> Vec<usize> {
            rules.into_iter().map(|(id, _)| id.0).collect()
        };
        assert_eq!(ids(db.rules_reading(["A"]).collect()), vec![3, 4]);
        assert_eq!(ids(db.rules_reading(["B", "A"]).collect()), vec![1, 3, 4]);
        assert_eq!(
            ids(db.rules_reading(["C", "Z"]).collect()),
            Vec::<usize>::new()
        );
        // Upward from B: A <- B, then C <- A and D <- A, B, A.
        assert_eq!(ids(db.rules_above(["B"])), vec![1, 3, 4]);
        assert_eq!(ids(db.rules_above(["A"])), vec![3, 4]);
        assert_eq!(ids(db.rules_above(["D"])), Vec::<usize>::new());
        assert_eq!(
            ids(db.rules().collect()),
            vec![1, 3, 4],
            "rules() walks every rule"
        );
    }

    #[test]
    fn watermark_covers_clause_vars() {
        let db = example5();
        let mut gen = db.fresh_gen();
        let fresh = gen.fresh();
        assert!(fresh.0 >= 1);
    }

    #[test]
    fn rename_standardizes_apart() {
        let db = example5();
        let mut gen = db.fresh_gen();
        let c1 = db.clause(ClauseId(1)).rename(&mut gen);
        let c2 = db.clause(ClauseId(1)).rename(&mut gen);
        assert_ne!(c1.head_args, c2.head_args);
        // Head and body share the renamed variable consistently.
        assert_eq!(c1.head_args[0], c1.body[0].args[0]);
    }

    #[test]
    fn display_round_trip_shape() {
        let db = example5();
        let s = db.clause(ClauseId(0)).to_string();
        assert_eq!(s, "A(X0) <- X0 <= 3.");
        let s2 = db.clause(ClauseId(3)).to_string();
        assert_eq!(s2, "C(X0) <- || A(X0).");
    }

    #[test]
    fn validation_passes_clean_database() {
        assert!(example5().validate().is_empty());
    }

    #[test]
    fn validation_reports_arity_mismatch() {
        let mut db = example5();
        db.push(Clause::fact(
            "A",
            vec![x(), Term::var(Var(1))],
            Constraint::truth(),
        ));
        let issues = db.validate();
        assert!(issues.iter().any(
            |i| matches!(i, ValidationIssue::ArityMismatch { pred, .. } if pred.as_ref() == "A")
        ));
    }

    #[test]
    fn validation_reports_undefined_body_predicate() {
        let mut db = example5();
        db.push(Clause::new(
            "D",
            vec![x()],
            Constraint::truth(),
            vec![BodyAtom::new("ghost", vec![x()])],
        ));
        let issues = db.validate();
        assert!(issues.iter().any(
            |i| matches!(i, ValidationIssue::UndefinedBodyPredicate { pred, .. } if pred.as_ref() == "ghost")
        ));
        // Render all issues (exercises Display).
        for i in &issues {
            assert!(!i.to_string().is_empty());
        }
    }
}
