//! Conservative argument bounds of constrained atoms: the pre-check in
//! front of every tie-and-solve scan of the maintenance algorithms.
//!
//! For each argument position, the bound is a set every instance's value
//! at that position lies in, read straight off the atom: a constant
//! argument is its own singleton; a variable argument is the intersection
//! of the top-level `X op k` (integer `k`) and `X = c` literals on it;
//! anything else — field projections, `in(..)`, `!=`, `not(..)`,
//! comparisons against variables or non-integers — leaves the position
//! unbounded. Two atoms whose bounds are disjoint at some position share
//! no instance, so `a.constraint ∧ b.constraint_at(a.args)` is
//! unsolvable and neither the tying nor the solver call is needed. The
//! test is a necessary condition only: bounds that meet decide nothing.
//!
//! A request's bounds are read on the fly from its atom. The stored side
//! is filed: each view entry (at each non-constant argument) and each
//! fact clause of a database (at each head argument) sits in an
//! [`IntervalIndex`] under the integer interval its bound lies in, the
//! whole line when the bound holds anything else. A selector asks one
//! position's index for the ids whose interval meets the request's and
//! re-checks [`ArgBounds::meets`] on each, so it visits what the request
//! can meet, not every entry of its predicate. The index is paged
//! copy-on-write like the rest of the store: a clone shares every page,
//! and a mutation copies the one page it lands on.

use crate::atom::ConstrainedAtom;
use crate::store::unshare_counted;
use mmv_constraints::{CmpOp, Constraint, IntBound, Lit, Term, Value, ValueSet, Var};
use std::sync::Arc;

/// Per-argument-position bounds of one constrained atom (or of a clause
/// head under the clause's constraint).
#[derive(Debug, Clone)]
pub(crate) struct ArgBounds(Vec<ValueSet>);

impl ArgBounds {
    /// The bounds of an atom's arguments.
    pub fn of(atom: &ConstrainedAtom) -> Self {
        ArgBounds(
            atom.args
                .iter()
                .map(|t| term_bound(t, &atom.constraint))
                .collect(),
        )
    }

    /// Bounds from explicit per-position sets.
    pub fn from_sets(sets: Vec<ValueSet>) -> Self {
        ArgBounds(sets)
    }

    /// Per position, the constant the bound pins the argument to, if it
    /// does — the pattern for [`crate::view::MaterializedView::probe_with`].
    pub fn constants(&self) -> impl Iterator<Item = Option<&Value>> {
        self.0.iter().map(|b| match b {
            ValueSet::Finite(s) if s.len() == 1 => s.iter().next(),
            _ => None,
        })
    }

    /// Whether `args` under `constraint` may share an instance with the
    /// atom these bounds were read from: same arity and bounds that meet
    /// at every position. `false` proves the two disjoint.
    pub fn meets(&self, args: &[Term], constraint: &Constraint) -> bool {
        args.len() == self.0.len()
            && args
                .iter()
                .zip(&self.0)
                .all(|(t, b)| !term_bound(t, constraint).intersect(b).is_empty())
    }

    /// [`ArgBounds::meets`] over an atom.
    pub fn meets_atom(&self, atom: &ConstrainedAtom) -> bool {
        self.meets(&atom.args, &atom.constraint)
    }

    /// The interval to look position `i` up by in an [`IntervalIndex`]:
    /// a pinned integer as a point, a pinned non-integer as
    /// [`Interval::BEYOND`]. `None` unless the bound pins the position or
    /// holds it to a closed integer interval.
    pub fn lookup(&self, i: usize) -> Option<Interval> {
        match &self.0[i] {
            ValueSet::Finite(s) if s.len() == 1 => Some(match s.iter().next() {
                Some(Value::Int(k)) => Interval { lo: *k, hi: *k },
                _ => Interval::BEYOND,
            }),
            ValueSet::IntRange(IntBound::Incl(lo), IntBound::Incl(hi)) => {
                Some(Interval { lo: *lo, hi: *hi })
            }
            _ => None,
        }
    }

    /// The position with the narrowest closed lookup interval among
    /// those `usable` admits, first on ties.
    pub fn narrowest(&self, usable: impl Fn(usize) -> bool) -> Option<(usize, Interval)> {
        (0..self.0.len())
            .filter(|&i| usable(i))
            .filter_map(|i| Some((i, self.lookup(i)?)))
            .min_by_key(|(_, at)| at.hi.abs_diff(at.lo))
    }
}

/// A closed integer interval `[lo, hi]`, the key of an [`IntervalIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interval {
    pub lo: i64,
    pub hi: i64,
}

impl Interval {
    /// The whole line: the key of a bound that is open on both sides or
    /// may hold a non-integer. Every lookup meets it.
    pub const OPEN: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The lookup for a non-integer value. Only keys spanning the whole
    /// line meet it (written inverted so the overlap test stays one
    /// comparison per side).
    pub const BEYOND: Interval = Interval {
        lo: i64::MAX,
        hi: i64::MIN,
    };

    /// The key an argument `t` is filed under: the integer hull of its
    /// bound under `constraint`, an open side running to the end of the
    /// line. Every instance value of `t` meets the key, so a lookup that
    /// misses it proves the argument cannot meet the request.
    pub fn filed(t: &Term, constraint: &Constraint) -> Interval {
        let bound = term_bound(t, constraint);
        let side = |b: IntBound, open: i64| match b {
            IntBound::Incl(k) => k,
            IntBound::Open => open,
        };
        match &bound {
            ValueSet::IntRange(lo, hi) => Interval {
                lo: side(*lo, i64::MIN),
                hi: side(*hi, i64::MAX),
            },
            ValueSet::Finite(s) => match (
                s.first().and_then(Value::as_int),
                s.last().and_then(Value::as_int),
            ) {
                (Some(lo), Some(hi)) if s.iter().all(|v| v.as_int().is_some()) => {
                    Interval { lo, hi }
                }
                _ => Interval::OPEN,
            },
            ValueSet::Empty | ValueSet::All => Interval::OPEN,
        }
    }

    /// Whether every value of `other` lies in `self`.
    pub fn contains(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }
}

/// One filed id: its key and the id, ordered by `(lo, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Filed {
    lo: i64,
    id: usize,
    hi: i64,
}

/// Ids per page after a split; a full page holds twice this. Unit
/// tests use tiny pages, so that a few dozen entries split, empty and
/// re-page them.
const PAGE: usize = if cfg!(test) { 2 } else { 64 };

/// One page of an [`IntervalIndex`]: its ids in key order and the
/// largest `hi` among them, so a lookup skips the page without reading
/// it when nothing there reaches the request.
#[derive(Debug, Clone)]
struct Page {
    max_hi: i64,
    filed: Arc<Vec<Filed>>,
}

impl Page {
    fn new(filed: Vec<Filed>) -> Page {
        Page {
            max_hi: max_hi(&filed),
            filed: Arc::new(filed),
        }
    }

    fn first(&self) -> &Filed {
        &self.filed[0]
    }
}

/// Ids filed under closed integer intervals, for overlap lookups.
///
/// The ids are kept in `(lo, id)` order in pages of up to `2 * PAGE`,
/// each behind an `Arc` and listed, with its largest `hi`, in a page
/// table behind another. A clone shares both. `insert` and `remove`
/// find their page by binary search, un-share the table (pointer copies)
/// and that one page, and edit the page in place. An insert into a full
/// page splits it first, so a page's buffer never grows past `2 * PAGE`
/// (a predicate's first page starts small and doubles up to it); a
/// page leaves the table when it empties. A lookup for `[lo, hi]` reads
/// the pages whose first key starts at or below `hi` and whose largest
/// `hi` reaches `lo`, and returns exactly the ids whose interval meets
/// `[lo, hi]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct IntervalIndex {
    pages: Arc<Vec<Page>>,
    /// Ids filed, over all pages.
    len: usize,
    /// Pages this handle's mutations copied because an older clone
    /// still held them (cumulative; clones inherit the count).
    copied: u64,
}

impl IntervalIndex {
    /// The page `f` belongs in: the last whose first key is not above
    /// it (the first page when none is).
    fn page_of(&self, f: &Filed) -> usize {
        self.pages
            .partition_point(|p| p.first() <= f)
            .saturating_sub(1)
    }

    /// Files `id` under `at`.
    pub fn insert(&mut self, at: Interval, id: usize) {
        let f = Filed {
            lo: at.lo,
            id,
            hi: at.hi,
        };
        let mut p = self.page_of(&f);
        self.len += 1;
        let pages = Arc::make_mut(&mut self.pages);
        let Some(page) = pages.get_mut(p) else {
            pages.push(Page::new(vec![f]));
            return;
        };
        if page.filed.len() == 2 * PAGE {
            let filed = unshare_counted(&mut page.filed, &mut self.copied);
            let mut tail = Vec::with_capacity(2 * PAGE);
            tail.extend(filed.drain(PAGE..));
            let tail = Page::new(tail);
            page.max_hi = max_hi(filed);
            let right = tail.first() <= &f;
            pages.insert(p + 1, tail);
            p += usize::from(right);
        }
        let page = &mut pages[p];
        let filed = unshare_counted(&mut page.filed, &mut self.copied);
        let slot = filed.partition_point(|g| *g < f);
        filed.insert(slot, f);
        page.max_hi = page.max_hi.max(f.hi);
    }

    /// Unfiles `id` from under `at`, if it is filed there.
    pub fn remove(&mut self, at: Interval, id: usize) {
        let f = Filed {
            lo: at.lo,
            id,
            hi: at.hi,
        };
        let p = self.page_of(&f);
        let Some(Ok(slot)) = self.pages.get(p).map(|page| page.filed.binary_search(&f)) else {
            return;
        };
        self.len -= 1;
        let pages = Arc::make_mut(&mut self.pages);
        let page = &mut pages[p];
        let filed = unshare_counted(&mut page.filed, &mut self.copied);
        filed.remove(slot);
        if filed.is_empty() {
            pages.remove(p);
        } else if f.hi == page.max_hi {
            page.max_hi = max_hi(filed);
        }
    }

    /// Appends the ids filed under an interval that meets `at`, in key
    /// order.
    pub fn meeting(&self, at: Interval, out: &mut Vec<usize>) {
        let reach = self.pages.partition_point(|p| p.first().lo <= at.hi);
        for page in self.pages[..reach].iter().filter(|p| p.max_hi >= at.lo) {
            for f in page.filed.iter().take_while(|f| f.lo <= at.hi) {
                if f.hi >= at.lo {
                    out.push(f.id);
                }
            }
        }
    }

    /// Number of ids filed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Every id filed, in key order.
    pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages.iter().flat_map(|p| p.filed.iter().map(|f| f.id))
    }

    /// Pages copied by this handle's mutations (see the field).
    pub fn copied_pages(&self) -> u64 {
        self.copied
    }
}

fn max_hi(filed: &[Filed]) -> i64 {
    filed.iter().map(|f| f.hi).max().unwrap_or(i64::MIN)
}

/// The bound of one argument term under `constraint`.
pub(crate) fn term_bound(t: &Term, constraint: &Constraint) -> ValueSet {
    match t {
        Term::Const(v) => ValueSet::singleton(v.clone()),
        Term::Field(..) => ValueSet::All,
        Term::Var(x) => constraint
            .lits
            .iter()
            .filter_map(|l| lit_bound(l, *x))
            .fold(ValueSet::All, |acc, b| acc.intersect(&b)),
    }
}

/// What one top-level literal says about variable `x` on its own, if
/// anything. The strict comparisons saturate exactly as the solver's
/// `tighten_const` does, so the bound is never tighter than the solver's.
fn lit_bound(l: &Lit, x: Var) -> Option<ValueSet> {
    let (op, k) = match l {
        Lit::Eq(Term::Var(v), Term::Const(c)) | Lit::Eq(Term::Const(c), Term::Var(v))
            if *v == x =>
        {
            return Some(ValueSet::singleton(c.clone()));
        }
        Lit::Cmp(Term::Var(v), op, Term::Const(Value::Int(k))) if *v == x => (*op, *k),
        Lit::Cmp(Term::Const(Value::Int(k)), op, Term::Var(v)) if *v == x => (op.flip(), *k),
        _ => return None,
    };
    Some(match op {
        CmpOp::Lt => ValueSet::ints_to(k.saturating_sub(1)),
        CmpOp::Le => ValueSet::ints_to(k),
        CmpOp::Gt => ValueSet::ints_from(k.saturating_add(1)),
        CmpOp::Ge => ValueSet::ints_from(k),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::{satisfiable, NoDomains, Truth, VarGen};
    use proptest::prelude::*;

    fn x() -> Term {
        Term::var(Var(0))
    }

    fn interval(pred: &str, lo: i64, hi: i64) -> ConstrainedAtom {
        ConstrainedAtom::new(
            pred,
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
                Term::int(hi),
                CmpOp::Ge,
                x(),
            )),
        )
    }

    #[test]
    fn reads_intervals_constants_and_equalities() {
        let b = ArgBounds::of(&interval("p", 3, 9));
        assert_eq!(b.0[0], ValueSet::ints_between(3, 9));
        assert!(b.meets_atom(&interval("p", 9, 12)));
        assert!(!b.meets_atom(&interval("p", 10, 12)));
        // A point request, as a constrained atom or as a ground fact.
        let point = ConstrainedAtom::new("p", vec![x()], Constraint::eq(x(), Term::int(9)));
        assert!(b.meets_atom(&point));
        assert!(b.meets_atom(&ConstrainedAtom::fact("p", vec![Value::int(9)])));
        assert!(!b.meets_atom(&ConstrainedAtom::fact("p", vec![Value::int(2)])));
        // Comparisons hold of integers only.
        assert!(!b.meets_atom(&ConstrainedAtom::fact("p", vec![Value::str("s")])));
        assert_eq!(
            ArgBounds::of(&point).constants().collect::<Vec<_>>(),
            vec![Some(&Value::int(9))]
        );
        // Arity is part of the test; anything unread is unbounded.
        assert!(!b.meets_atom(&ConstrainedAtom::new(
            "p",
            vec![x(), x()],
            Constraint::truth()
        )));
        let loose = ConstrainedAtom::new("p", vec![x()], Constraint::neq(x(), Term::int(5)));
        assert_eq!(ArgBounds::of(&loose).0[0], ValueSet::All);
        assert!(b.meets_atom(&loose));
    }

    fn arg() -> impl Strategy<Value = Term> {
        prop_oneof![
            4 => (0u32..2).prop_map(|v| Term::var(Var(v))),
            1 => (0i64..8).prop_map(Term::int),
            1 => Just(Term::str("s")),
        ]
    }

    fn op() -> impl Strategy<Value = CmpOp> {
        prop_oneof![
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge)
        ]
    }

    /// A literal the bounds read (`X op k`, `k op X`, `X = c`) or must
    /// read past (`X != k`, `X op Y`).
    fn flat_lit() -> impl Strategy<Value = Lit> {
        let var = || (0u32..3).prop_map(|v| Term::var(Var(v)));
        prop_oneof![
            3 => (var(), op(), 0i64..8).prop_map(|(v, op, k)| Lit::Cmp(v, op, Term::int(k))),
            2 => (0i64..8, op(), var()).prop_map(|(k, op, v)| Lit::Cmp(Term::int(k), op, v)),
            2 => (var(), 0i64..8).prop_map(|(v, k)| Lit::Eq(v, Term::int(k))),
            1 => var().prop_map(|v| Lit::Eq(Term::str("s"), v)),
            1 => (var(), 0i64..8).prop_map(|(v, k)| Lit::Neq(v, Term::int(k))),
            1 => (var(), op(), var()).prop_map(|(a, op, b)| Lit::Cmp(a, op, b)),
        ]
    }

    /// Flat literals plus the `not(..)` blocks deletions accumulate.
    fn lit() -> impl Strategy<Value = Lit> {
        prop_oneof![
            4 => flat_lit(),
            1 => collection::vec(flat_lit(), 1..=2_usize)
                .prop_map(|lits| Lit::Not(Constraint::conj(lits))),
        ]
    }

    fn atom() -> impl Strategy<Value = ConstrainedAtom> {
        (
            collection::vec(arg(), 1..=2_usize),
            collection::vec(lit(), 0..=4_usize),
        )
            .prop_map(|(args, lits)| ConstrainedAtom::new("p", args, Constraint::conj(lits)))
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(512),
            failure_persistence: None,
            ..ProptestConfig::default()
        })]

        /// The pre-check only ever drops a candidate the solver would
        /// have refuted: disjoint bounds ⇒ the tied conjunction is
        /// `Unsat` (and a differing arity ⇒ there is nothing to tie).
        #[test]
        fn disjoint_bounds_imply_unsat(a in atom(), b in atom()) {
            let mut gen = VarGen::starting_at(100);
            for (a, b) in [(&a, &b), (&b, &a)] {
                if ArgBounds::of(b).meets_atom(a) {
                    continue;
                }
                match b.constraint_at(&a.args, &mut gen) {
                    None => prop_assert_ne!(a.args.len(), b.args.len()),
                    Some(tied) => prop_assert_eq!(
                        satisfiable(&a.constraint.clone().and(tied), &NoDomains),
                        Truth::Unsat,
                        "bounds of {} miss {}, yet they share an instance", b, a
                    ),
                }
            }
        }
    }
}
