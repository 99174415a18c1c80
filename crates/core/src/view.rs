//! Materialized mediated views: sets of constrained atoms under duplicate
//! semantics (one entry per derivation), optionally indexed by supports.
//!
//! The paper's two deletion algorithms place different demands on the
//! view: Extended DRed (Algorithm 1) works on duplicate-free views
//! ([`SupportMode::Plain`]); StDel (Algorithm 2) requires every entry to
//! carry its support ([`SupportMode::WithSupports`]). The mode is fixed at
//! construction, which also gives the `paper` binary's `supports` section
//! (the support overhead ablation) its two arms.
//!
//! # The persistent store
//!
//! A view is a *handle* onto structurally-shared storage
//! ([`crate::store`]): cloning one is a handful of `Arc` bumps, never a
//! deep copy, which is what lets the `mmv-service` writer publish an
//! epoch after a k-entry batch in O(touched) rather than O(view). The
//! pieces:
//!
//! * **The entry slab** — an append-only [`SharedVec`] of immutable
//!   `Arc<Entry>` values. Entries are never mutated in place: StDel's
//!   constraint replacement swaps in a *new* `Arc<Entry>` (copy-on-write
//!   at page granularity), and tombstoning touches only the predicate
//!   index, so an entry reachable from an old snapshot can never change
//!   under its readers.
//! * **Per-predicate index pages** — each predicate's `PredIndex`
//!   (live list, live-slot map, constant-argument discrimination maps)
//!   sits behind its own `Arc` and is copied lazily on the first
//!   mutation after a clone (`Arc::make_mut`); predicates a batch never
//!   touches stay physically shared across every published epoch. The
//!   copy itself is *sub-page*: the live-slot map and the per-position
//!   constant discrimination maps are persistent tries ([`SharedMap`]),
//!   so un-sharing a touched predicate clones only the live id vector
//!   (a memcpy) plus O(log n) trie nodes per *touched key* — a batch
//!   that hits one constant of a 1024-entry index copies a handful of
//!   key/value pairs, not the whole index.
//! * **Per-predicate interval indexes** — beside each `PredIndex`, its
//!   own copy-on-write page: per argument position, an
//!   `IntervalIndex` (the crate's `bounds` module) of the entries whose
//!   argument there is not a constant, filed under the integer interval
//!   their bound lies in. Its ids sit in sorted pages behind `Arc`s, so
//!   a clone shares them all and an insert or removal copies the page
//!   table (pointers) and the one page it edits, in place thereafter
//!   ([`ShareStats::interval_pages_copied`]). Each entry remembers the
//!   interval it is filed under, so removal finds it without re-reading
//!   the constraint.
//! * **Global dedup indexes** — the support → entry and
//!   canonical-hash → entries maps are insert-only persistent tries
//!   ([`SharedMap`]): an insert path-copies O(log n) nodes, and clones
//!   share the rest.
//! * **The reverse support index** (`WithSupports` only) — a second
//!   paged [`SharedVec`], one slot per entry slot, listing the live
//!   entries whose support has that entry's support among its children
//!   (`MaterializedView::parents_of`). It is what lets StDel go upward
//!   from a deletion to exactly the entries that depend on it. `insert`
//!   and `remove` keep it; constraint replacement keeps supports, so it
//!   leaves the index alone. The fixpoint engine hands `insert` the
//!   child ids it combined, so linking costs no lookup; compaction and
//!   checkpoint load look each child up by support. A list of one
//!   parent is stored inline and longer ones behind an `Arc`, so
//!   un-sharing a page copies pointers, not lists. A live entry whose
//!   child has no slot here (a compacted view drops dead children) is
//!   held under the child's support until that support is inserted.
//!
//! Liveness lives in the predicate index (an entry is live iff its id is
//! in its predicate's slot map), **not** in the entry — flipping a
//! mutable `alive` bit inside a shared entry would be visible to every
//! snapshot holding it. Because all sharing is behind plain `Arc`s with
//! `&self` reads and copy-on-write `&mut self` writes, concurrent
//! readers of old clones are safe by construction: the writer can only
//! ever mutate storage it has already un-shared.
//!
//! # Candidate selection
//!
//! The maintenance algorithms never walk a predicate's entries to tie
//! and solve each one. They read the update's *argument bounds* — per
//! position, the integer interval or constant its instances lie in
//! (the crate's `bounds` module) — and ask `MaterializedView::candidates` for the
//! entries whose own bounds meet them: StDel's direct step, Extended
//! DRed's `Del` and over-deletion, and insertion's `Add` build all go
//! through that one selector, and every candidate they go on to tie goes
//! through one overlap test, `ConstrainedAtom::overlap` (tie, one
//! counted solver call, the tied constraint and the shared region back
//! unless refuted). `T_P` joins select through it too, by the bounds
//! the already-chosen children place on a body atom (see `tp`).
//!
//! The selector visits only what the update can meet. Where the bounds
//! pin a position to a constant it takes the constant-argument index's
//! matches ([`MaterializedView::probe`]) and, of the entries with a
//! variable there, those whose filed interval holds the point. Else it
//! looks up the narrowest closed interval of the request in that
//! position's interval index, provided no entry holds a constant there
//! (constants are never filed, so a ground predicate keeps its probe).
//! A request with neither walks the live list. Every entry visited is
//! re-checked against its current bounds, so the ids, their order
//! (the probe's, or the live list's) and the dismissal count are what a
//! scan of the probe gives. A filed interval only has to hold the
//! entry's bound: replacing a constraint by a narrower one leaves the
//! entry where it is, and only a widening re-files it. The test only
//! ever drops entries the solver would have refuted — the maintained
//! view is the same, entry for entry. Reads do not select yet:
//! [`MaterializedView::query`] still walks the predicate and enumerates
//! every entry (ROADMAP item 2 has the measured switch and what holds
//! it back).
//!
//! [`MaterializedView::share_stats`] reports how many entry pages /
//! predicate indexes a handle's mutations actually copied — the
//! service's per-epoch shared-vs-copied accounting.

use crate::atom::ConstrainedAtom;
use crate::bounds::{ArgBounds, Interval, IntervalIndex};
use crate::store::{SharedMap, SharedVec};
use crate::support::Support;
use mmv_constraints::fxhash::{FxHashMap, FxHasher};
use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{DomainResolver, Subst, Term, Value, Var, VarGen};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Whether view entries carry supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupportMode {
    /// Entries carry supports; duplicates (same support) impossible by
    /// Lemma 1. Required by StDel.
    WithSupports,
    /// No supports; entries deduplicated by syntactic canonical form.
    Plain,
}

/// Index of a view entry.
pub type EntryId = usize;

/// One constrained atom of the view, with its derivation metadata.
///
/// Entries are immutable once stored: maintenance replaces an entry
/// wholesale (see [`MaterializedView::replace_constraint`]) instead of
/// mutating it, and liveness is tracked by the predicate index, so a
/// snapshot holding this entry never observes a change.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The constrained atom.
    pub atom: ConstrainedAtom,
    /// The derivation index (present in `WithSupports` mode).
    pub support: Option<Support>,
    /// Per child of the support: the child's head-argument tuple as
    /// instantiated (standardized apart) inside this entry's constraint.
    /// StDel's step 3 ties the negated child constraint to these terms.
    pub children_args: Vec<Vec<Term>>,
    /// Per argument position, the interval the entry is filed under in
    /// its predicate's interval index (read at the non-constant
    /// positions only); empty when every argument is a constant.
    filed: Box<[Interval]>,
}

/// Per-predicate access structures, maintained incrementally by
/// `insert`/`remove` so the fixpoint engine never rescans the view.
///
/// `live` holds the ids of all live entries of the predicate (unordered;
/// removal is a swap-remove through `slots`, which doubles as the
/// liveness set). `by_const[p]` discriminates live entries by the
/// constant at argument position `p`; entries whose argument at `p`
/// is a variable or field projection are filed in the position's
/// interval index instead (see [`PredPages`]).
///
/// Each `PredIndex` is one copy-on-write "page": the view holds it
/// behind an `Arc` and copies it on the first mutation after a clone.
/// The expensive members — `slots` and `by_const` — are themselves
/// persistent tries, so that page copy clones trie *roots* (Arc bumps)
/// and later key mutations un-share O(log n) nodes per touched key;
/// `live` stays a plain vector (its clone is a memcpy, and probes
/// borrow it as a slice).
#[derive(Debug, Clone, Default)]
struct PredIndex {
    live: Vec<EntryId>,
    /// Live entry → its slot in `live` (O(1) removal); membership here
    /// *is* liveness.
    slots: SharedMap<EntryId, usize>,
    by_const: Vec<SharedMap<Value, Vec<EntryId>>>,
}

/// One predicate's two copy-on-write pages: its [`PredIndex`] and, per
/// argument position, the interval index of the live entries whose
/// argument there is not a constant, filed by bounds (see "Candidate
/// selection" in the module docs). They un-share apart, so a
/// constraint replacement that re-files an entry copies interval pages
/// and never the `PredIndex`.
#[derive(Debug, Clone, Default)]
struct PredPages {
    index: Arc<PredIndex>,
    intervals: Arc<Vec<IntervalIndex>>,
}

impl PredPages {
    /// The most selective position `pattern` binds, with its probe: the
    /// entries carrying that constant there, then every entry with a
    /// non-constant argument there — all that position's interval index
    /// files, whatever their interval. `None` when nothing is bound.
    fn pinned<'a, 'p>(
        &'a self,
        pattern: impl IntoIterator<Item = Option<&'p Value>>,
    ) -> Option<(usize, Probe<'a>)> {
        let mut best: Option<(usize, Probe<'a>)> = None;
        for (p, pat) in pattern.into_iter().enumerate() {
            let Some(v) = pat else { continue };
            let cand = Probe {
                consts: self
                    .index
                    .by_const
                    .get(p)
                    .and_then(|m| m.get(v))
                    .map_or(&[], Vec::as_slice),
                filed: self.intervals.get(p),
                discriminated: true,
            };
            if best.as_ref().is_none_or(|(_, b)| cand.len() < b.len()) {
                best = Some((p, cand));
            }
        }
        best
    }
}

/// One slot's list in the reverse support index. Most entries have no
/// parent or one, so only a fan-in of two or more allocates, and that
/// list sits behind an `Arc` so that copying the slot's page copies a
/// pointer, not the list.
#[derive(Debug, Clone, Default)]
enum Parents {
    #[default]
    None,
    One(EntryId),
    Many(Arc<Vec<EntryId>>),
}

impl Parents {
    fn as_slice(&self) -> &[EntryId] {
        match self {
            Parents::None => &[],
            Parents::One(id) => std::slice::from_ref(id),
            Parents::Many(ids) => ids,
        }
    }

    /// Adds `id`. A parent naming the same child twice links it twice
    /// in a row, so a repeat is always the last id and is dropped.
    fn add(&mut self, id: EntryId) {
        match self {
            Parents::None => *self = Parents::One(id),
            Parents::One(p) if *p == id => {}
            Parents::One(p) => *self = Parents::Many(Arc::new(vec![*p, id])),
            Parents::Many(ids) => {
                if ids.last() != Some(&id) {
                    Arc::make_mut(ids).push(id);
                }
            }
        }
    }

    fn remove(&mut self, id: EntryId) {
        match self {
            Parents::One(p) if *p == id => *self = Parents::None,
            Parents::Many(ids) => Arc::make_mut(ids).retain(|&p| p != id),
            _ => {}
        }
    }
}

/// Un-shares a predicate index for mutation, counting the copy when one
/// actually happens (the index was still shared with an older clone).
fn cow_index<'a>(copies: &mut u64, arc: &'a mut Arc<PredIndex>) -> &'a mut PredIndex {
    crate::store::unshare_counted(arc, copies)
}

/// The positions of `args` an interval index files (the non-constant
/// ones).
fn filed_positions(args: &[Term]) -> impl Iterator<Item = usize> + '_ {
    args.iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t, Term::Const(_)))
        .map(|(p, _)| p)
}

/// The result of a [`MaterializedView::probe`], borrowed from the
/// index: the constant matches of the chosen position, then every entry
/// its interval index files (the non-constant ones, in `(lo, id)`
/// order); or the full live list when no position was bound.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    consts: &'a [EntryId],
    filed: Option<&'a IntervalIndex>,
    discriminated: bool,
}

impl<'a> Probe<'a> {
    const EMPTY: Probe<'static> = Probe {
        consts: &[],
        filed: None,
        discriminated: false,
    };

    /// Number of candidate entries.
    pub fn len(&self) -> usize {
        self.consts.len() + self.filed.map_or(0, IntervalIndex::len)
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the lookup was answered by the constant-argument
    /// discrimination index (at least one pattern position was bound),
    /// as opposed to falling back to the full live list.
    pub fn discriminated(&self) -> bool {
        self.discriminated
    }

    /// Whether every candidate carries the probed constant: no entry
    /// with a non-constant argument there (or nothing at all) was
    /// filed.
    pub(crate) fn consts_only(&self) -> bool {
        self.discriminated && self.filed.is_none_or(|f| f.len() == 0)
    }

    /// Iterates the candidate entry ids.
    pub fn iter(&self) -> impl Iterator<Item = EntryId> + 'a {
        let filed = self.filed.into_iter().flat_map(IntervalIndex::ids);
        self.consts.iter().copied().chain(filed)
    }
}

/// A ground fact of the instance semantics `[M]`.
pub type GroundFact = (Arc<str>, Vec<Value>);

/// Failure to materialize `[M]` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// An entry's instance enumeration exceeded budgets.
    Overflow(String),
    /// An entry's instances are not finitely enumerable.
    Unknown(String),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::Overflow(a) => write!(f, "instance overflow on {a}"),
            InstanceError::Unknown(a) => write!(f, "non-enumerable instances on {a}"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// Structural-sharing statistics of one view handle: how much of the
/// store its mutations have had to copy (cumulative — callers diff
/// across epochs), against the current totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Entry-slab pages currently allocated.
    pub entry_pages: usize,
    /// Entry-slab pages this handle's mutations copied because they
    /// were still shared with an older clone.
    pub entry_pages_copied: u64,
    /// Predicate indexes currently allocated (one per predicate).
    pub pred_indexes: usize,
    /// Predicate indexes this handle's mutations copied because they
    /// were still shared with an older clone.
    pub pred_indexes_copied: u64,
    /// Constant-discrimination keys currently held across all predicate
    /// indexes (sum of `by_const` map sizes over predicates and
    /// argument positions).
    pub by_const_keys: usize,
    /// `by_const` key/value pairs this handle's mutations physically
    /// cloned while un-sharing trie leaves — the sub-page CoW cost, to
    /// be compared against `by_const_keys` (the whole-index cost the
    /// old page-granular copy would have paid).
    pub by_const_keys_copied: u64,
    /// Live-slot-map pairs cloned while un-sharing trie leaves (the
    /// `slots` half of the sub-page copy cost).
    pub slot_keys_copied: u64,
    /// Interval-index pages this handle's mutations copied because they
    /// were still shared with an older clone (the bounds selector's
    /// share of the copy cost; see the module docs).
    pub interval_pages_copied: u64,
}

impl ShareStats {
    /// Copy-counter delta `(entry_pages_copied, pred_indexes_copied)`
    /// since `before`. The cumulative counters never decrease on one
    /// handle, so a caller diffing across a batch gets the copies that
    /// batch caused.
    pub fn copied_since(&self, before: &ShareStats) -> (u64, u64) {
        (
            self.entry_pages_copied - before.entry_pages_copied,
            self.pred_indexes_copied - before.pred_indexes_copied,
        )
    }

    /// Key-level copy delta `(by_const_keys_copied, slot_keys_copied)`
    /// since `before` — the sub-page analogue of
    /// [`ShareStats::copied_since`].
    pub fn key_copies_since(&self, before: &ShareStats) -> (u64, u64) {
        (
            self.by_const_keys_copied - before.by_const_keys_copied,
            self.slot_keys_copied - before.slot_keys_copied,
        )
    }
}

/// A materialized mediated view: a cheaply-clonable handle onto a
/// persistent, structurally-shared store (see the module docs).
#[derive(Debug, Clone)]
pub struct MaterializedView {
    mode: SupportMode,
    store: SharedVec<Arc<Entry>>,
    preds: FxHashMap<Arc<str>, PredPages>,
    by_support: SharedMap<Support, EntryId>,
    by_canon: SharedMap<u64, Vec<EntryId>>,
    /// The reverse support index, one slot per entry slot
    /// (`WithSupports` mode; empty in `Plain` mode).
    parents: SharedVec<Parents>,
    /// Reverse links whose child support has no slot in this view,
    /// keyed by that support.
    orphans: SharedMap<Support, Parents>,
    live: usize,
    next_external: u64,
    var_gen: VarGen,
    pred_copies: u64,
}

impl MaterializedView {
    /// An empty view. `var_gen` must dominate the variables of the
    /// database the view will be built from (use
    /// [`crate::program::ConstrainedDatabase::fresh_gen`]).
    pub fn new(mode: SupportMode, var_gen: VarGen) -> Self {
        MaterializedView {
            mode,
            store: SharedVec::new(),
            preds: FxHashMap::default(),
            by_support: SharedMap::new(),
            by_canon: SharedMap::new(),
            parents: SharedVec::new(),
            orphans: SharedMap::new(),
            live: 0,
            next_external: 0,
            var_gen,
            pred_copies: 0,
        }
    }

    /// The view's support mode.
    pub fn mode(&self) -> SupportMode {
        self.mode
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the view has no live entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The view's variable generator (used by maintenance algorithms to
    /// standardize apart consistently with the view's contents).
    pub fn var_gen_mut(&mut self) -> &mut VarGen {
        &mut self.var_gen
    }

    /// A fresh external-insertion ticket (for Algorithm 3 supports).
    pub fn fresh_external_ticket(&mut self) -> u64 {
        let t = self.next_external;
        self.next_external += 1;
        t
    }

    /// Inserts an entry. Returns `None` if it duplicates an existing one
    /// (same support in `WithSupports` mode; same canonical form in
    /// `Plain` mode).
    pub fn insert(
        &mut self,
        atom: ConstrainedAtom,
        support: Option<Support>,
        children_args: Vec<Vec<Term>>,
    ) -> Option<EntryId> {
        self.insert_linked(atom, support, children_args, None)
    }

    /// Crate-internal: [`MaterializedView::insert`] for an entry derived
    /// from entries of this view. `children` holds the ids of the
    /// entries its support's children name, in order, so the reverse
    /// support index links them without a lookup per child. `Plain`
    /// mode ignores it.
    pub(crate) fn insert_derived(
        &mut self,
        atom: ConstrainedAtom,
        support: Option<Support>,
        children_args: Vec<Vec<Term>>,
        children: &[EntryId],
    ) -> Option<EntryId> {
        self.insert_linked(atom, support, children_args, Some(children))
    }

    fn insert_linked(
        &mut self,
        atom: ConstrainedAtom,
        support: Option<Support>,
        children_args: Vec<Vec<Term>>,
        children: Option<&[EntryId]>,
    ) -> Option<EntryId> {
        match self.mode {
            SupportMode::WithSupports => {
                let support = support.expect("WithSupports entries need a support");
                if self.by_support.contains_key(&support) {
                    return None;
                }
                let id = self.push_entry(atom, Some(support.clone()), children_args);
                self.link_children(id, &support, children);
                self.by_support.insert(support, id);
                Some(id)
            }
            SupportMode::Plain => {
                let key = canonical_hash(&atom);
                if let Some(ids) = self.by_canon.get(&key) {
                    let canon = canonicalize(&atom);
                    if ids
                        .iter()
                        .any(|&i| self.is_live(i) && canonicalize(&self.entry(i).atom) == canon)
                    {
                        return None;
                    }
                }
                let id = self.push_entry(atom, None, children_args);
                self.by_canon.update(key, Vec::new(), |ids| ids.push(id));
                Some(id)
            }
        }
    }

    fn push_entry(
        &mut self,
        mut atom: ConstrainedAtom,
        support: Option<Support>,
        mut children_args: Vec<Vec<Term>>,
    ) -> EntryId {
        // Stored without the builders' spare capacity: an entry stays in
        // its slot, live or dead, until the view is dropped.
        atom.args.shrink_to_fit();
        atom.constraint.lits.shrink_to_fit();
        children_args.shrink_to_fit();
        children_args.iter_mut().for_each(Vec::shrink_to_fit);
        let id = self.store.len();
        let copies = &mut self.pred_copies;
        let pages = self.preds.entry(atom.pred.clone()).or_default();
        let idx = cow_index(copies, &mut pages.index);
        if idx.by_const.len() < atom.args.len() {
            idx.by_const.resize_with(atom.args.len(), SharedMap::new);
        }
        let slot = idx.live.len();
        idx.live.push(id);
        idx.slots.insert(id, slot);
        for (p, t) in atom.args.iter().enumerate() {
            if let Term::Const(v) = t {
                idx.by_const[p].update(v.clone(), Vec::new(), |ids| ids.push(id));
            }
        }
        let mut filed: Box<[Interval]> = Box::default();
        if filed_positions(&atom.args).next().is_some() {
            filed = atom
                .args
                .iter()
                .map(|t| Interval::filed(t, &atom.constraint))
                .collect();
            let intervals = Arc::make_mut(&mut pages.intervals);
            if intervals.len() < filed.len() {
                intervals.resize_with(filed.len(), IntervalIndex::default);
            }
            for p in filed_positions(&atom.args) {
                intervals[p].insert(filed[p], id);
            }
        }
        self.store.push(Arc::new(Entry {
            atom,
            support,
            children_args,
            filed,
        }));
        self.live += 1;
        id
    }

    /// Reverse support index upkeep for the fresh entry `id`: its own
    /// slot (adopting any links held for its support), then one link
    /// from each child's slot. The child slots are `children` when the
    /// caller holds them, else looked up by support; a child with no
    /// slot in this view is held as an orphan under its support.
    fn link_children(&mut self, id: EntryId, support: &Support, children: Option<&[EntryId]>) {
        debug_assert_eq!(self.parents.len(), id, "one index slot per entry slot");
        let adopted = self.orphans.remove(support).unwrap_or_default();
        self.parents.push(adopted);
        for (j, child) in support.children().iter().enumerate() {
            let slot = match children {
                Some(ids) => {
                    debug_assert_eq!(self.entry(ids[j]).support.as_ref(), Some(child));
                    Some(ids[j])
                }
                None => self.by_support.get(child).copied(),
            };
            match slot {
                Some(c) => self.parents.update(c, |p| p.add(id)),
                None => self
                    .orphans
                    .update(child.clone(), Parents::None, |p| p.add(id)),
            }
        }
    }

    /// Undoes [`MaterializedView::link_children`]'s child links for the
    /// entry `id`, which is being removed. Its own slot stays: a dead
    /// entry's live parents still list it as a child.
    fn unlink_children(&mut self, id: EntryId) {
        let Some(support) = self.store.get(id).support.clone() else {
            return;
        };
        for child in support.children() {
            match self.by_support.get(child).copied() {
                Some(c) => self.parents.update(c, |p| p.remove(id)),
                None => self
                    .orphans
                    .update(child.clone(), Parents::None, |p| p.remove(id)),
            }
        }
    }

    /// The live entries whose support has `support` among its children,
    /// in no particular order: the entries a change to the entry owning
    /// `support` propagates to. Empty in `Plain` mode.
    pub(crate) fn parents_of(&self, support: &Support) -> &[EntryId] {
        match self.by_support.get(support) {
            Some(&id) => self.parents.get(id).as_slice(),
            None => self.orphans.get(support).map_or(&[], Parents::as_slice),
        }
    }

    /// The entry with the given id (live or dead).
    pub fn entry(&self, id: EntryId) -> &Entry {
        self.store.get(id)
    }

    /// Whether the entry with the given id is live (not tombstoned).
    /// Liveness is tracked by the predicate index, not the entry, so
    /// entries shared with older snapshots never change.
    pub fn is_live(&self, id: EntryId) -> bool {
        id < self.store.len()
            && self
                .preds
                .get(&self.store.get(id).atom.pred)
                .is_some_and(|ix| ix.index.slots.contains_key(&id))
    }

    /// Crate-internal: one predicate's liveness set (live id → slot),
    /// resolved once so hot loops can test membership per id without
    /// re-hashing the predicate name.
    pub(crate) fn live_set(&self, pred: &str) -> Option<&SharedMap<EntryId, usize>> {
        self.preds.get(pred).map(|ix| &ix.index.slots)
    }

    /// Iterates live entries.
    pub fn live_entries(&self) -> impl Iterator<Item = (EntryId, &Entry)> {
        self.store
            .iter()
            .enumerate()
            .filter(|(id, e)| {
                self.preds
                    .get(&e.atom.pred)
                    .is_some_and(|ix| ix.index.slots.contains_key(id))
            })
            .map(|(id, e)| (id, e.as_ref()))
    }

    /// Ids of live entries for a predicate (unordered; borrowed from the
    /// incrementally-maintained per-predicate index). Snapshot with
    /// `.to_vec()` if the view will be mutated while iterating.
    pub fn entries_for_pred(&self, pred: &str) -> &[EntryId] {
        self.preds
            .get(pred)
            .map(|ix| ix.index.live.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of entry slots, live and tombstoned (every
    /// [`EntryId`] ever issued is below this watermark).
    pub fn entry_slots(&self) -> usize {
        self.store.len()
    }

    /// Structural-sharing statistics of this handle (copied vs total
    /// pages; see [`ShareStats`]).
    pub fn share_stats(&self) -> ShareStats {
        let mut by_const_keys = 0usize;
        let mut by_const_keys_copied = 0u64;
        let mut slot_keys_copied = 0u64;
        let mut interval_pages_copied = 0u64;
        for pages in self.preds.values() {
            let ix = &pages.index;
            slot_keys_copied += ix.slots.copied_keys();
            for m in &ix.by_const {
                by_const_keys += m.len();
                by_const_keys_copied += m.copied_keys();
            }
            interval_pages_copied += pages
                .intervals
                .iter()
                .map(IntervalIndex::copied_pages)
                .sum::<u64>();
        }
        ShareStats {
            entry_pages: self.store.page_count(),
            entry_pages_copied: self.store.copied_pages(),
            pred_indexes: self.preds.len(),
            pred_indexes_copied: self.pred_copies,
            by_const_keys,
            by_const_keys_copied,
            slot_keys_copied,
            interval_pages_copied,
        }
    }

    /// Live candidate entries of `pred` that *may* match `pattern`
    /// (`Some(v)` = that argument position must be able to equal `v`).
    ///
    /// Uses the constant-argument discrimination index: the most
    /// selective bound position contributes its exact constant matches
    /// plus all entries with a non-constant argument there (whose
    /// constraints may or may not admit `v` — the caller's join/solve
    /// step decides). The result is a superset of the truly matching
    /// entries and a subset of all live entries of `pred`.
    pub fn probe<'a>(&'a self, pred: &str, pattern: &[Option<&Value>]) -> Probe<'a> {
        self.probe_with(pred, pattern.iter().copied())
    }

    /// [`MaterializedView::probe`] over a streamed pattern — the join
    /// engine's allocation-free entry point (the pattern is consumed
    /// positionally without materializing a buffer).
    pub fn probe_with<'a, 'p>(
        &'a self,
        pred: &str,
        pattern: impl IntoIterator<Item = Option<&'p Value>>,
    ) -> Probe<'a> {
        let Some(pages) = self.preds.get(pred) else {
            return Probe::EMPTY;
        };
        pages.pinned(pattern).map_or(
            Probe {
                consts: &pages.index.live,
                filed: None,
                discriminated: false,
            },
            |(_, probe)| probe,
        )
    }

    /// Crate-internal: the candidate selector of the maintenance scans
    /// and of `T_P` joins — the live entries of `pred` whose argument
    /// bounds meet `bounds` (see [`crate::bounds`]), in
    /// [`MaterializedView::probe`] order.
    /// Every entry left out is proved to share no instance with the atom
    /// `bounds` was read from, so the caller's tie-and-solve runs only
    /// on the returned ids; the live entries dismissed are added to
    /// `prefiltered`, the entries visited to `selected`.
    ///
    /// What is visited (see "Candidate selection" in the module docs):
    /// where `bounds` pins a position, the probe's constant matches and
    /// the entries the point meets in that position's interval index;
    /// else, at the narrowest closed interval of a position no entry
    /// holds a constant at, the entries meeting it there, in live-list
    /// order; else every live entry.
    pub(crate) fn candidates(
        &self,
        pred: &str,
        bounds: &ArgBounds,
        prefiltered: &mut usize,
        selected: &mut usize,
    ) -> Vec<EntryId> {
        let Some(pages) = self.preds.get(pred) else {
            return Vec::new();
        };
        let ix = &pages.index;
        let mut filed: Vec<EntryId> = Vec::new();
        let first: &[EntryId] = match pages.pinned(bounds.constants()) {
            Some((p, probe)) => {
                // The probe's non-constant entries are all the ids filed
                // at `p`, in the key order `meeting` keeps.
                if let (Some(index), Some(at)) = (probe.filed, bounds.lookup(p)) {
                    index.meeting(at, &mut filed);
                }
                probe.consts
            }
            None => {
                match bounds.narrowest(|i| ix.by_const.get(i).is_none_or(SharedMap::is_empty)) {
                    Some((i, at)) => {
                        if let Some(index) = pages.intervals.get(i) {
                            index.meeting(at, &mut filed);
                        }
                        let mut by_slot: Vec<(usize, EntryId)> = filed
                            .iter()
                            .map(|&id| {
                                (ix.slots.get(&id).copied().expect("filed ids are live"), id)
                            })
                            .collect();
                        by_slot.sort_unstable();
                        filed = by_slot.into_iter().map(|(_, id)| id).collect();
                        &[]
                    }
                    None => &ix.live,
                }
            }
        };
        *selected += first.len() + filed.len();
        let ids: Vec<EntryId> = first
            .iter()
            .chain(&filed)
            .copied()
            .filter(|&id| bounds.meets_atom(&self.entry(id).atom))
            .collect();
        *prefiltered += ix.live.len() - ids.len();
        ids
    }

    /// The entry owning `support`, if live.
    pub fn entry_by_support(&self, support: &Support) -> Option<EntryId> {
        self.by_support
            .get(support)
            .copied()
            .filter(|&i| self.is_live(i))
    }

    /// Tombstones an entry and unregisters it from the predicate
    /// indexes. The entry itself is untouched (it stays readable via
    /// [`MaterializedView::entry`] and shared with older snapshots);
    /// only this handle's predicate index forgets it.
    pub fn remove(&mut self, id: EntryId) -> bool {
        let entry = Arc::clone(self.store.get(id));
        let pred = &entry.atom.pred;
        if !self
            .preds
            .get(pred)
            .is_some_and(|ix| ix.index.slots.contains_key(&id))
        {
            return false; // already tombstoned
        }
        let pages = self.preds.get_mut(pred).expect("liveness just checked");
        if !entry.filed.is_empty() {
            let intervals = Arc::make_mut(&mut pages.intervals);
            for p in filed_positions(&entry.atom.args) {
                intervals[p].remove(entry.filed[p], id);
            }
        }
        let idx = cow_index(&mut self.pred_copies, &mut pages.index);
        let slot = idx.slots.remove(&id).expect("liveness just checked");
        idx.live.swap_remove(slot);
        if let Some(&moved) = idx.live.get(slot) {
            idx.slots.insert(moved, slot);
        }
        for (p, t) in entry.atom.args.iter().enumerate() {
            let Term::Const(v) = t else { continue };
            // Drop the key outright when this was its last id — `update`
            // would un-share the leaf only to leave an empty list behind.
            match idx.by_const[p].get(v) {
                Some(ids) if ids.iter().all(|&x| x == id) => {
                    idx.by_const[p].remove(v);
                }
                Some(_) => {
                    idx.by_const[p].update(v.clone(), Vec::new(), |ids| ids.retain(|&x| x != id));
                }
                None => {}
            }
        }
        self.unlink_children(id);
        self.live -= 1;
        true
    }

    /// Replaces an entry's constraint (StDel's replacement step) by
    /// swapping in a new immutable entry — the support and children
    /// metadata are retained, and snapshots sharing the old entry keep
    /// it unchanged (copy-on-write at slab-page granularity).
    ///
    /// The entry stays filed where it is wherever its new bound lies
    /// within the interval it is filed under — the maintenance
    /// algorithms only ever conjoin `not(..)`, so for them this is a
    /// slab-only write. A live entry whose bound widens past its filing
    /// is re-filed, which copies interval pages, never the predicate
    /// index.
    pub fn replace_constraint(&mut self, id: EntryId, c: mmv_constraints::Constraint) {
        let mut e = (**self.store.get(id)).clone();
        e.atom.constraint = c;
        let live = !e.filed.is_empty() && self.is_live(id);
        for p in filed_positions(&e.atom.args).filter(|_| live) {
            let now = Interval::filed(&e.atom.args[p], &e.atom.constraint);
            if e.filed[p].contains(&now) {
                continue;
            }
            let pages = self.preds.get_mut(&e.atom.pred).expect("live entry");
            let index = &mut Arc::make_mut(&mut pages.intervals)[p];
            index.remove(e.filed[p], id);
            index.insert(now, id);
            e.filed[p] = now;
        }
        self.store.set(id, Arc::new(e));
    }

    /// The instance semantics `[M]`, evaluated against the resolver's
    /// current state. Errors if any entry cannot be enumerated exactly.
    pub fn instances(
        &self,
        resolver: &dyn DomainResolver,
        config: &SolverConfig,
    ) -> Result<BTreeSet<GroundFact>, InstanceError> {
        let mut out = BTreeSet::new();
        for (_, e) in self.live_entries() {
            match e.atom.instances(resolver, config) {
                crate::atom::Instances::Exact(tuples) => {
                    for t in tuples {
                        out.insert((e.atom.pred.clone(), t));
                    }
                }
                crate::atom::Instances::Overflow => {
                    return Err(InstanceError::Overflow(e.atom.to_string()))
                }
                crate::atom::Instances::Unknown => {
                    return Err(InstanceError::Unknown(e.atom.to_string()))
                }
            }
        }
        Ok(out)
    }

    /// Answers a query `pred(pattern)` where `None` positions are free:
    /// the set of matching ground tuples, evaluated at the resolver's
    /// current state (the `W_P` query-time semantics).
    pub fn query(
        &self,
        pred: &str,
        pattern: &[Option<Value>],
        resolver: &dyn DomainResolver,
        config: &SolverConfig,
    ) -> Result<BTreeSet<Vec<Value>>, InstanceError> {
        let mut out = BTreeSet::new();
        for &id in self.entries_for_pred(pred) {
            let e = self.entry(id);
            if e.atom.args.len() != pattern.len() {
                continue;
            }
            let mut atom = e.atom.clone();
            for (t, p) in atom.args.iter().zip(pattern) {
                if let Some(v) = p {
                    atom.constraint = atom
                        .constraint
                        .and_lit(mmv_constraints::Lit::Eq(t.clone(), Term::Const(v.clone())));
                }
            }
            match atom.instances(resolver, config) {
                crate::atom::Instances::Exact(tuples) => out.extend(tuples),
                crate::atom::Instances::Overflow => {
                    return Err(InstanceError::Overflow(e.atom.to_string()))
                }
                crate::atom::Instances::Unknown => {
                    return Err(InstanceError::Unknown(e.atom.to_string()))
                }
            }
        }
        Ok(out)
    }

    /// Boolean query: whether `pred(args)` is an instance of the view at
    /// the resolver's current state.
    pub fn ask(
        &self,
        pred: &str,
        args: &[Value],
        resolver: &dyn DomainResolver,
        config: &SolverConfig,
    ) -> Result<bool, InstanceError> {
        let pattern: Vec<Option<Value>> = args.iter().cloned().map(Some).collect();
        Ok(!self.query(pred, &pattern, resolver, config)?.is_empty())
    }

    /// Whether two views are *syntactically* identical (same live atoms
    /// up to variable renaming, with the same supports,
    /// order-insensitive) — the property Theorem 4 guarantees for `W_P`
    /// views across external updates. Atoms are canonicalized before
    /// comparison so that views built by differently-ordered but
    /// equivalent derivation sequences compare equal.
    pub fn syntactically_equal(&self, other: &MaterializedView) -> bool {
        fn render(v: &MaterializedView) -> Vec<String> {
            let mut out: Vec<String> = v
                .live_entries()
                .map(|(_, e)| {
                    format!(
                        "{} @ {:?}",
                        canonicalize(&e.atom),
                        e.support.as_ref().map(|s| s.to_string())
                    )
                })
                .collect();
            out.sort();
            out
        }
        render(self) == render(other)
    }

    /// Deep-copies the live entries into a fresh view (compaction).
    pub fn compact(&self) -> MaterializedView {
        let mut v = MaterializedView::new(self.mode, self.var_gen.clone());
        v.next_external = self.next_external;
        for (_, e) in self.live_entries() {
            v.insert(e.atom.clone(), e.support.clone(), e.children_args.clone());
        }
        v
    }
}

impl fmt::Display for MaterializedView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (_, e) in self.live_entries() {
            match &e.support {
                Some(s) => writeln!(f, "{}    {}", e.atom, s)?,
                None => writeln!(f, "{}", e.atom)?,
            }
        }
        Ok(())
    }
}

/// Canonicalizes an atom: variables renamed to 0.. in first-occurrence
/// order (arguments first, then constraint literals).
pub fn canonicalize(atom: &ConstrainedAtom) -> ConstrainedAtom {
    let vars = atom.free_vars();
    let subst: Subst = vars
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, Term::Var(Var(i as u32))))
        .collect();
    atom.substitute(&subst)
}

fn canonical_hash(atom: &ConstrainedAtom) -> u64 {
    let c = canonicalize(atom);
    let mut h = FxHasher::default();
    c.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BodyAtom, Clause, ClauseId, ConstrainedDatabase};
    use crate::support::Producer;
    use mmv_constraints::{CmpOp, Constraint, Lit, NoDomains, ValueSet};

    fn atom(pred: &str, v: u32, hi: i64) -> ConstrainedAtom {
        let t = Term::var(Var(v));
        ConstrainedAtom::new(
            pred,
            vec![t.clone()],
            Constraint::cmp(t.clone(), CmpOp::Ge, Term::int(1)).and(Constraint::cmp(
                t,
                CmpOp::Le,
                Term::int(hi),
            )),
        )
    }

    #[test]
    fn plain_mode_dedups_by_canonical_form() {
        let mut v = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        assert!(v.insert(atom("p", 1, 3), None, vec![]).is_some());
        // Same atom up to variable renaming: deduplicated.
        assert!(v.insert(atom("p", 7, 3), None, vec![]).is_none());
        // Different bound: a new entry.
        assert!(v.insert(atom("p", 1, 4), None, vec![]).is_some());
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn support_mode_dedups_by_support() {
        let mut v = MaterializedView::new(SupportMode::WithSupports, VarGen::starting_at(100));
        let s1 = Support::leaf(Producer::Clause(ClauseId(1)));
        let s2 = Support::leaf(Producer::Clause(ClauseId(2)));
        assert!(v
            .insert(atom("p", 1, 3), Some(s1.clone()), vec![])
            .is_some());
        // Same support: rejected even with a different constraint.
        assert!(v
            .insert(atom("p", 1, 4), Some(s1.clone()), vec![])
            .is_none());
        // Same atom, different support: duplicate semantics keeps both.
        assert!(v.insert(atom("p", 1, 3), Some(s2), vec![]).is_some());
        assert_eq!(v.len(), 2);
        assert!(v.entry_by_support(&s1).is_some());
    }

    #[test]
    fn instances_union_over_entries() {
        let mut v = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        v.insert(atom("p", 1, 2), None, vec![]);
        v.insert(atom("p", 1, 4), None, vec![]);
        let inst = v.instances(&NoDomains, &SolverConfig::default()).unwrap();
        assert_eq!(inst.len(), 4); // {1,2} ∪ {1,2,3,4}
    }

    #[test]
    fn query_with_pattern() {
        let mut v = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        v.insert(atom("p", 1, 5), None, vec![]);
        let hits = v
            .query(
                "p",
                &[Some(Value::int(3))],
                &NoDomains,
                &SolverConfig::default(),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        let misses = v
            .query(
                "p",
                &[Some(Value::int(9))],
                &NoDomains,
                &SolverConfig::default(),
            )
            .unwrap();
        assert!(misses.is_empty());
        let all = v
            .query("p", &[None], &NoDomains, &SolverConfig::default())
            .unwrap();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn removal_tombstones() {
        let mut v = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        let id = v.insert(atom("p", 1, 3), None, vec![]).unwrap();
        assert!(v.is_live(id));
        assert!(v.remove(id));
        assert!(!v.remove(id));
        assert!(!v.is_live(id));
        assert_eq!(v.len(), 0);
        assert!(v.entries_for_pred("p").is_empty());
        // The tombstoned entry stays readable.
        assert_eq!(v.entry(id).atom.pred.as_ref(), "p");
    }

    #[test]
    fn probe_discriminates_on_constant_arguments() {
        let mut v = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        for i in 0..10 {
            v.insert(
                ConstrainedAtom::fact("e", vec![Value::int(1), Value::int(i)]),
                None,
                vec![],
            );
        }
        let odd = v
            .insert(
                ConstrainedAtom::fact("e", vec![Value::int(2), Value::int(5)]),
                None,
                vec![],
            )
            .unwrap();
        // A non-constant first argument: must appear in every probe of
        // position 0 (its constraint may admit any value).
        let t = Term::var(Var(0));
        let ranged = v
            .insert(
                ConstrainedAtom::new(
                    "e",
                    vec![t.clone(), Term::int(9)],
                    Constraint::cmp(t, CmpOp::Le, Term::int(3)),
                ),
                None,
                vec![],
            )
            .unwrap();
        let two = Value::int(2);
        let hits: Vec<EntryId> = v.probe("e", &[Some(&two), None]).iter().collect();
        assert!(hits.contains(&odd));
        assert!(hits.contains(&ranged));
        assert_eq!(hits.len(), 2, "e(1, _) facts must be pruned");
        // Unbound pattern falls back to the full live list.
        assert_eq!(v.probe("e", &[None, None]).len(), 12);
        // Unknown predicate or never-seen constant yields nothing
        // constant-indexed (only the non-constant entry remains).
        assert!(v.probe("ghost", &[Some(&two), None]).is_empty());
        let unseen = Value::int(77);
        let fallback: Vec<EntryId> = v.probe("e", &[Some(&unseen), None]).iter().collect();
        assert_eq!(fallback, vec![ranged]);
        // Removal unregisters from every index list.
        assert!(v.remove(odd));
        let after: Vec<EntryId> = v.probe("e", &[Some(&two), None]).iter().collect();
        assert_eq!(after, vec![ranged]);
        assert_eq!(v.entries_for_pred("e").len(), 11);
        // The most selective bound position wins: binding position 1 to 5
        // scans the e(1,5) fact, and no entry is filed at position 1.
        let five = Value::int(5);
        assert_eq!(v.probe("e", &[None, Some(&five)]).len(), 1);
    }

    #[test]
    fn syntactic_equality_ignores_order() {
        let mut a = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        let mut b = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        a.insert(atom("p", 1, 3), None, vec![]);
        a.insert(atom("q", 1, 3), None, vec![]);
        b.insert(atom("q", 1, 3), None, vec![]);
        b.insert(atom("p", 1, 3), None, vec![]);
        assert!(a.syntactically_equal(&b));
        b.insert(atom("r", 1, 1), None, vec![]);
        assert!(!a.syntactically_equal(&b));
    }

    #[test]
    fn compact_drops_tombstones() {
        let mut v = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        let id = v.insert(atom("p", 1, 3), None, vec![]).unwrap();
        v.insert(atom("q", 1, 3), None, vec![]);
        v.remove(id);
        let c = v.compact();
        assert_eq!(c.len(), 1);
        assert!(c.syntactically_equal(&v));
    }

    #[test]
    fn clones_share_structure_and_stay_isolated() {
        let mut v = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        let keep = v.insert(atom("p", 1, 3), None, vec![]).unwrap();
        let gone = v.insert(atom("q", 1, 3), None, vec![]).unwrap();
        let before = v.share_stats();
        assert_eq!(before.entry_pages_copied, 0, "unshared writes copy nothing");
        assert_eq!(before.pred_indexes_copied, 0);

        let snapshot = v.clone();
        // Tombstone q, weaken p, add r — the snapshot must not move.
        v.remove(gone);
        v.replace_constraint(
            keep,
            Constraint::cmp(Term::var(Var(1)), CmpOp::Le, Term::int(2)),
        );
        v.insert(atom("r", 1, 5), None, vec![]);
        assert_eq!(snapshot.len(), 2);
        assert!(snapshot.is_live(gone));
        assert!(snapshot
            .entry(keep)
            .atom
            .constraint
            .to_string()
            .contains(">= 1"));
        assert_eq!(v.len(), 2);
        assert!(!v.is_live(gone));
        // The mutations copied the shared slab page once and the one
        // touched predicate index (q's; constraint replacement goes to
        // the slab, and r's index is fresh, not copied).
        let after = v.share_stats();
        assert!(after.entry_pages_copied > before.entry_pages_copied);
        assert_eq!(after.pred_indexes_copied, 1, "only q's index copied");
        // The snapshot handle itself never copied anything.
        assert_eq!(snapshot.share_stats().entry_pages_copied, 0);
        assert_eq!(snapshot.share_stats().by_const_keys_copied, 0);
        assert_eq!(snapshot.share_stats().slot_keys_copied, 0);
    }

    #[test]
    fn sub_page_index_copies_only_touched_keys() {
        // 1024 entries of one predicate, each with a distinct constant:
        // the old page-granular copy would clone all 1024 discrimination
        // keys on the first post-snapshot touch. Sub-page CoW must clone
        // only the trie leaves on the touched key's path.
        let mut v = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
        let ids: Vec<EntryId> = (0..1024)
            .map(|i| {
                v.insert(
                    ConstrainedAtom::fact("e", vec![Value::int(i), Value::int(i % 7)]),
                    None,
                    vec![],
                )
                .unwrap()
            })
            .collect();
        let before = v.share_stats();
        assert_eq!(before.by_const_keys, 1024 + 7);
        assert_eq!(before.by_const_keys_copied, 0, "unshared writes are free");

        let snapshot = v.clone();
        assert!(v.remove(ids[500]));
        let (by_const_copied, slot_copied) = v.share_stats().key_copies_since(&before);
        assert!(
            by_const_copied > 0 && by_const_copied < 64,
            "one touched key must copy O(leaf) pairs, not O(index): {by_const_copied}"
        );
        assert!(
            slot_copied > 0 && slot_copied < 64,
            "slot map copies are key-granular too: {slot_copied}"
        );
        // The snapshot still sees the removed entry and every key.
        assert!(snapshot.is_live(ids[500]));
        assert_eq!(snapshot.share_stats().by_const_keys, 1024 + 7);
        let v500 = Value::int(500);
        assert_eq!(snapshot.probe("e", &[Some(&v500), None]).len(), 1);
        assert!(v.probe("e", &[Some(&v500), None]).is_empty());
    }

    /// One step of the reverse-index property below. Slot picks are
    /// taken modulo the view's slot count, so they name live and dead
    /// entries alike.
    #[derive(Debug, Clone)]
    enum Op {
        /// An entry of clause `clause` whose support's children are the
        /// supports of the picked entries; inserted with the child ids
        /// (`derived`) or with a lookup per child.
        Insert {
            clause: usize,
            picks: Vec<usize>,
            derived: bool,
        },
        Remove(usize),
        Replace(usize),
        Snapshot,
        Compact,
    }

    fn op() -> impl proptest::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            6 => (0usize..3, collection::vec(0usize..64, 0..3usize), 0u8..2).prop_map(
                |(clause, picks, derived)| Op::Insert { clause, picks, derived: derived == 1 }
            ),
            3 => (0usize..64).prop_map(Op::Remove),
            1 => (0usize..64).prop_map(Op::Replace),
            1 => Just(Op::Snapshot),
            1 => Just(Op::Compact),
        ]
    }

    /// `parents_of(s)` against a scan of the live entries listing `s`
    /// as a child, for every support the view stores or names.
    fn assert_parents_match_scan(v: &MaterializedView) {
        let mut supports: Vec<Support> = (0..v.entry_slots())
            .filter_map(|i| v.entry(i).support.clone())
            .collect();
        for (_, e) in v.live_entries() {
            supports.extend(e.support.as_ref().unwrap().children().iter().cloned());
        }
        for s in &supports {
            let scan: Vec<EntryId> = v
                .live_entries()
                .filter(|(_, e)| e.support.as_ref().unwrap().children().contains(s))
                .map(|(id, _)| id)
                .collect();
            let mut index = v.parents_of(s).to_vec();
            index.sort_unstable();
            assert_eq!(index, scan, "parents of {s}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: if cfg!(miri) { 4 } else { 96 },
            ..Default::default()
        })]

        #[test]
        fn reverse_support_index_matches_a_scan(ops in proptest::collection::vec(op(), 1..48usize)) {
            let mut v = MaterializedView::new(SupportMode::WithSupports, VarGen::starting_at(100));
            let mut snapshots: Vec<MaterializedView> = Vec::new();
            for op in &ops {
                let slots = v.entry_slots();
                match op {
                    Op::Insert { clause, picks, derived } => {
                        let ids: Vec<EntryId> = match slots {
                            0 => Vec::new(),
                            n => picks.iter().map(|p| p % n).collect(),
                        };
                        let children = ids.iter().map(|&i| v.entry(i).support.clone().unwrap());
                        let support = Support::node(Producer::Clause(ClauseId(*clause)), children.collect());
                        let a = atom("p", 1, ids.len() as i64 + 1);
                        if *derived {
                            v.insert_derived(a, Some(support), vec![], &ids);
                        } else {
                            v.insert(a, Some(support), vec![]);
                        }
                    }
                    Op::Remove(p) if slots > 0 => {
                        v.remove(p % slots);
                    }
                    Op::Replace(p) if slots > 0 => {
                        v.replace_constraint(p % slots, Constraint::truth());
                    }
                    Op::Snapshot => snapshots.push(v.clone()),
                    Op::Compact => v = v.compact(),
                    Op::Remove(_) | Op::Replace(_) => {}
                }
                assert_parents_match_scan(&v);
                for s in &snapshots {
                    assert_parents_match_scan(s);
                }
            }
        }
    }

    /// One step of the selector property below. Entry picks are taken
    /// modulo the view's slot count, so they name live and dead entries
    /// alike.
    #[derive(Debug, Clone)]
    enum SelOp {
        Insert(ConstrainedAtom),
        Remove(usize),
        /// Conjoins a literal: the bound can only narrow.
        Narrow(usize, Lit),
        /// Swaps in an unrelated constraint: the bound may widen.
        Widen(usize, Vec<Lit>),
        Snapshot,
        Compact,
    }

    fn sel_var() -> impl proptest::Strategy<Value = Term> {
        use proptest::prelude::*;
        (0u32..2).prop_map(|v| Term::var(Var(v)))
    }

    fn sel_cmp() -> impl proptest::Strategy<Value = CmpOp> {
        use proptest::prelude::*;
        prop_oneof![
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge)
        ]
    }

    /// Literals the bounds read (`X op k`, `k op X`, `X = c`) or read
    /// past (`X != k`, `c = X` over a string, `not(..)`).
    fn sel_lit() -> impl proptest::Strategy<Value = Lit> {
        use proptest::prelude::*;
        prop_oneof![
            4 => (sel_var(), sel_cmp(), 0i64..10).prop_map(|(x, op, k)| Lit::Cmp(x, op, Term::int(k))),
            2 => (0i64..10, sel_cmp(), sel_var()).prop_map(|(k, op, x)| Lit::Cmp(Term::int(k), op, x)),
            2 => (sel_var(), 0i64..10).prop_map(|(x, k)| Lit::Eq(x, Term::int(k))),
            1 => sel_var().prop_map(|x| Lit::Eq(Term::str("s"), x)),
            1 => (sel_var(), 0i64..10).prop_map(|(x, k)| Lit::Neq(x, Term::int(k))),
            1 => (sel_var(), 0i64..10)
                .prop_map(|(x, k)| Lit::Not(Constraint::lit(Lit::Eq(x, Term::int(k))))),
        ]
    }

    /// An atom of `p` (mostly) or `q`, of arity 1 to 3 (mostly 2), with
    /// variable, integer and string arguments.
    fn sel_atom() -> impl proptest::Strategy<Value = ConstrainedAtom> {
        use proptest::prelude::*;
        let arg = prop_oneof![
            4 => sel_var(),
            2 => (0i64..10).prop_map(Term::int),
            1 => Just(Term::str("s")),
        ];
        let arity = prop_oneof![1 => Just(1usize), 6 => Just(2usize), 1 => Just(3usize)];
        (
            prop_oneof![4 => Just("p"), 1 => Just("q")],
            arity,
            collection::vec(arg, 3..=3usize),
            collection::vec(sel_lit(), 0..=3usize),
        )
            .prop_map(|(pred, arity, mut args, lits)| {
                args.truncate(arity);
                ConstrainedAtom::new(pred, args, Constraint::conj(lits))
            })
    }

    fn sel_op() -> impl proptest::Strategy<Value = SelOp> {
        use proptest::prelude::*;
        prop_oneof![
            8 => sel_atom().prop_map(SelOp::Insert),
            3 => (0usize..64).prop_map(SelOp::Remove),
            2 => (0usize..64, sel_lit()).prop_map(|(i, l)| SelOp::Narrow(i, l)),
            2 => (0usize..64, collection::vec(sel_lit(), 0..=2usize))
                .prop_map(|(i, lits)| SelOp::Widen(i, lits)),
            1 => Just(SelOp::Snapshot),
            1 => Just(SelOp::Compact),
        ]
    }

    /// A request position: points (integer and not), closed intervals,
    /// one-sided bounds, no bound, no value at all.
    fn sel_bound() -> impl proptest::Strategy<Value = ValueSet> {
        use proptest::prelude::*;
        prop_oneof![
            3 => (0i64..10).prop_map(|k| ValueSet::singleton(Value::int(k))),
            3 => (0i64..10, 0i64..4).prop_map(|(lo, w)| ValueSet::ints_between(lo, lo + w)),
            1 => (0i64..10).prop_map(ValueSet::ints_from),
            1 => (0i64..10).prop_map(ValueSet::ints_to),
            1 => Just(ValueSet::All),
            1 => Just(ValueSet::singleton(Value::str("s"))),
            1 => Just(ValueSet::Empty),
        ]
    }

    /// A request: a predicate (`r` is never stored) and per-position
    /// bounds of arity 0 to 3.
    fn sel_request() -> impl proptest::Strategy<Value = (&'static str, Vec<ValueSet>)> {
        use proptest::prelude::*;
        (
            prop_oneof![4 => Just("p"), 1 => Just("q"), 1 => Just("r")],
            collection::vec(sel_bound(), 0..=3usize),
        )
    }

    /// `candidates` against the scan it replaces: the probe's ids that
    /// meet the bounds, with the same dismissal count, visiting no more
    /// than the probe holds.
    fn assert_candidates_match_scan(v: &MaterializedView, requests: &[(&str, Vec<ValueSet>)]) {
        for (pred, sets) in requests {
            let bounds = ArgBounds::from_sets(sets.clone());
            let probe = v.probe_with(pred, bounds.constants());
            let scan: Vec<EntryId> = probe
                .iter()
                .filter(|&id| bounds.meets_atom(&v.entry(id).atom))
                .collect();
            let (mut prefiltered, mut selected) = (0, 0);
            let ids = v.candidates(pred, &bounds, &mut prefiltered, &mut selected);
            assert_eq!(ids, scan, "{pred} {sets:?}");
            assert_eq!(prefiltered, v.entries_for_pred(pred).len() - scan.len());
            assert!(
                selected <= probe.len(),
                "{pred} {sets:?}: {selected} visited"
            );
        }
    }

    /// The database's fact lookup against a scan of the predicate's
    /// clauses, on the database and on its `p` clauses pushed under
    /// their original numbers (which are then not positions).
    fn assert_facts_match_scan(db: &ConstrainedDatabase, requests: &[(&str, Vec<ValueSet>)]) {
        let mut only_p = ConstrainedDatabase::new();
        for (id, clause) in db.clauses().filter(|(_, c)| c.head_pred.as_ref() == "p") {
            only_p.push_numbered(id, clause.clone());
        }
        for db in [db, &only_p] {
            for (pred, sets) in requests {
                let bounds = ArgBounds::from_sets(sets.clone());
                let facts: Vec<ClauseId> = db
                    .clauses_for_head(pred)
                    .iter()
                    .copied()
                    .filter(|&id| db.clause(id).body.is_empty())
                    .collect();
                let scan: Vec<ClauseId> = facts
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let fact = db.clause(id);
                        bounds.meets(&fact.head_args, &fact.constraint)
                    })
                    .collect();
                let mut selected = 0;
                let met = db.facts_meeting(pred, &bounds, &mut selected);
                assert_eq!(met, scan, "{pred} {sets:?}");
                assert!(
                    selected <= facts.len(),
                    "{pred} {sets:?}: {selected} visited"
                );
                assert_eq!(db.fact_count(pred), facts.len());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: if cfg!(miri) { 4 } else { 96 },
            ..Default::default()
        })]

        #[test]
        fn candidates_match_a_scan(
            ops in proptest::collection::vec(sel_op(), 1..48usize),
            requests in proptest::collection::vec(sel_request(), 1..6usize),
        ) {
            let mut v = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(100));
            let mut snapshots: Vec<MaterializedView> = Vec::new();
            // Every inserted atom is also a fact clause here, among rules.
            let x = || Term::var(Var(0));
            let mut db = ConstrainedDatabase::new();
            db.push(Clause::new("p", vec![x()], Constraint::truth(), vec![BodyAtom::new("q", vec![x()])]));
            for op in &ops {
                let slots = v.entry_slots();
                match op {
                    SelOp::Insert(a) => {
                        v.insert(a.clone(), None, vec![]);
                        db.push(Clause::fact(&a.pred, a.args.clone(), a.constraint.clone()));
                        db.push(Clause::new("q", vec![x()], Constraint::truth(), vec![BodyAtom::new("p", vec![x()])]));
                    }
                    SelOp::Remove(i) if slots > 0 => {
                        v.remove(i % slots);
                    }
                    SelOp::Narrow(i, lit) if slots > 0 => {
                        let c = v.entry(i % slots).atom.constraint.clone();
                        v.replace_constraint(i % slots, c.and_lit(lit.clone()));
                    }
                    SelOp::Widen(i, lits) if slots > 0 => {
                        v.replace_constraint(i % slots, Constraint::conj(lits.clone()));
                    }
                    SelOp::Snapshot => snapshots.push(v.clone()),
                    SelOp::Compact => v = v.compact(),
                    SelOp::Remove(_) | SelOp::Narrow(..) | SelOp::Widen(..) => {}
                }
                assert_candidates_match_scan(&v, &requests);
                for s in &snapshots {
                    assert_candidates_match_scan(s, &requests);
                }
            }
            assert_facts_match_scan(&db, &requests);
        }
    }
}
