//! Decision procedure for *primitive* conjunctions (no `not(·)`): the
//! *engine room* of the satisfiability tests that `T_P`, `Del`, `Add`,
//! `P_OUT` and `P_ADD` perform.
//!
//! The procedure combines:
//! * congruence-closure-style union-find over variables and record-field
//!   projections,
//! * integer interval reasoning with an ordering graph (SCC contraction
//!   for `X <= Y <= X` cycles, then exact one-pass DAG bound propagation),
//! * evaluation of DCA-atoms `in(X, d:f(args))` against a
//!   [`DomainResolver`], intersecting the returned [`ValueSet`]s,
//! * finite-candidate witness search for disequality clusters.
//!
//! The verdict is three-valued ([`Truth`]): `Sat` and `Unsat` are
//! definitive; `Unknown` arises from deferred DCA-atoms whose arguments
//! never become ground, oversized candidate spaces, or exhausted witness
//! budgets. Callers treat `Unknown` as "possibly satisfiable", which is
//! sound for view maintenance: it can only keep an entry, or do work, that
//! a definite verdict would have dropped, and instance enumeration stays
//! exact, so no instance is lost or invented.

use crate::constraint::{Call, CmpOp, Constraint, DomainResolver, Lit};
use crate::fxhash::FxHashMap;
use crate::solver::unionfind::{NodeId, UnionFind};
use crate::solver::{SolverConfig, Truth};
use crate::term::{Term, Var};
use crate::value::Value;
use crate::valueset::{IntBound, ValueSet};
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::sync::Arc;

/// Marker for a definite inconsistency (the conjunction is unsatisfiable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Conflict;

/// The representation of a term inside the solver.
#[derive(Debug, Clone)]
enum Repr {
    Val(Value),
    Node(NodeId),
}

/// Pending structural operations, processed via a worklist to avoid deep
/// recursion through field-congruence cascades.
#[derive(Debug)]
enum Op {
    Union(NodeId, NodeId),
    Bind(NodeId, Value),
}

/// Per-equivalence-class knowledge.
#[derive(Debug, Clone)]
struct ClassData {
    binding: Option<Value>,
    /// Whether the class must be an integer (it participates in a
    /// comparison literal).
    numeric: bool,
    lo: IntBound,
    hi: IntBound,
    /// Values this class must not take (from `X != c`).
    excluded: BTreeSet<Value>,
    /// Sets this class must belong to (from DCA-atoms).
    sets: Vec<ValueSet>,
    /// Sets this class must avoid (from negated DCA-atoms).
    anti: Vec<ValueSet>,
    /// Field-projection nodes, for congruence on records.
    fields: FxHashMap<Arc<str>, NodeId>,
}

impl ClassData {
    fn new() -> Self {
        ClassData {
            binding: None,
            numeric: false,
            lo: IntBound::Open,
            hi: IntBound::Open,
            excluded: BTreeSet::new(),
            sets: Vec::new(),
            anti: Vec::new(),
            fields: FxHashMap::default(),
        }
    }
}

/// Candidate values for one class after constraint propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Candidates {
    /// Exactly these values remain possible.
    Finite(Vec<Value>),
    /// Infinitely many (or more than the enumeration budget) remain.
    Infinite,
}

/// A deferred DCA-atom: `positive` distinguishes `in` from `notin`.
#[derive(Debug, Clone)]
struct Residual {
    x: Term,
    call: Call,
    positive: bool,
}

pub(crate) struct ConjSolver<'a> {
    resolver: &'a dyn DomainResolver,
    config: &'a SolverConfig,
    uf: UnionFind,
    data: Vec<Option<ClassData>>,
    var_nodes: FxHashMap<Var, NodeId>,
    diseqs: Vec<(NodeId, NodeId)>,
    /// Ordering edges `a <(=) b`; bool = strict.
    edges: Vec<(NodeId, NodeId, bool)>,
    residuals: Vec<Residual>,
    /// Set when the verdict cannot be definitive.
    unknown: bool,
    ops: VecDeque<Op>,
}

impl<'a> ConjSolver<'a> {
    pub(crate) fn new(resolver: &'a dyn DomainResolver, config: &'a SolverConfig) -> Self {
        ConjSolver {
            resolver,
            config,
            uf: UnionFind::new(),
            data: Vec::new(),
            var_nodes: FxHashMap::default(),
            diseqs: Vec::new(),
            edges: Vec::new(),
            residuals: Vec::new(),
            unknown: false,
            ops: VecDeque::new(),
        }
    }

    /// Ingests a primitive conjunction and propagates to fixpoint.
    /// Precondition: `c` contains no `Lit::Not` (use DNF first).
    pub(crate) fn assert_all(&mut self, c: &Constraint) -> Result<(), Conflict> {
        for lit in &c.lits {
            self.assert_lit(lit)?;
        }
        self.propagate_fixpoint()
    }

    /// The final three-valued verdict. Call after `assert_all`.
    pub(crate) fn verdict(&mut self) -> Truth {
        match self.final_check() {
            Err(Conflict) => Truth::Unsat,
            Ok(true) => Truth::Sat,
            Ok(false) => Truth::Unknown,
        }
    }

    // ---- node plumbing -------------------------------------------------

    fn new_node(&mut self) -> NodeId {
        let id = self.uf.add();
        self.data.push(Some(ClassData::new()));
        id
    }

    fn var_node(&mut self, v: Var) -> NodeId {
        if let Some(&n) = self.var_nodes.get(&v) {
            return n;
        }
        let n = self.new_node();
        self.var_nodes.insert(v, n);
        n
    }

    fn root_data(&mut self, n: NodeId) -> &mut ClassData {
        let r = self.uf.find(n);
        self.data[r].as_mut().expect("root data present")
    }

    fn repr(&mut self, t: &Term) -> Result<Repr, Conflict> {
        match t {
            Term::Const(v) => Ok(Repr::Val(v.clone())),
            Term::Var(v) => Ok(Repr::Node(self.var_node(*v))),
            Term::Field(base, f) => {
                let b = self.repr(base)?;
                match b {
                    // Projection of a constant: fold, or fail (a record
                    // without the field has no solutions).
                    Repr::Val(v) => v.field(f).cloned().map(Repr::Val).ok_or(Conflict),
                    Repr::Node(n) => {
                        let r = self.uf.find(n);
                        let d = self.data[r].as_ref().expect("root");
                        if let Some(bv) = &d.binding {
                            return bv.field(f).cloned().map(Repr::Val).ok_or(Conflict);
                        }
                        if let Some(&fnode) = d.fields.get(f.as_ref()) {
                            return Ok(Repr::Node(fnode));
                        }
                        let fnode = self.new_node();
                        self.root_data(r).fields.insert(f.clone(), fnode);
                        Ok(Repr::Node(fnode))
                    }
                }
            }
        }
    }

    // ---- literal ingestion ---------------------------------------------

    fn assert_lit(&mut self, lit: &Lit) -> Result<(), Conflict> {
        match lit {
            Lit::Eq(a, b) => {
                let (ra, rb) = (self.repr(a)?, self.repr(b)?);
                self.assert_eq_repr(ra, rb)?;
            }
            Lit::Neq(a, b) => {
                let (ra, rb) = (self.repr(a)?, self.repr(b)?);
                self.assert_neq_repr(ra, rb)?;
            }
            Lit::Cmp(a, op, b) => {
                let (ra, rb) = (self.repr(a)?, self.repr(b)?);
                self.assert_cmp_repr(ra, *op, rb)?;
            }
            Lit::In(x, call) => {
                self.assert_membership(x, call, true)?;
            }
            Lit::NotIn(x, call) => {
                self.assert_membership(x, call, false)?;
            }
            Lit::Not(_) => {
                // Callers must expand to DNF first; treat a stray Not
                // conservatively.
                self.unknown = true;
            }
        }
        self.drain_ops()
    }

    fn assert_eq_repr(&mut self, a: Repr, b: Repr) -> Result<(), Conflict> {
        match (a, b) {
            (Repr::Val(x), Repr::Val(y)) => {
                if x == y {
                    Ok(())
                } else {
                    Err(Conflict)
                }
            }
            (Repr::Node(n), Repr::Val(v)) | (Repr::Val(v), Repr::Node(n)) => {
                self.ops.push_back(Op::Bind(n, v));
                Ok(())
            }
            (Repr::Node(x), Repr::Node(y)) => {
                self.ops.push_back(Op::Union(x, y));
                Ok(())
            }
        }
    }

    fn assert_neq_repr(&mut self, a: Repr, b: Repr) -> Result<(), Conflict> {
        match (a, b) {
            (Repr::Val(x), Repr::Val(y)) => {
                if x != y {
                    Ok(())
                } else {
                    Err(Conflict)
                }
            }
            (Repr::Node(n), Repr::Val(v)) | (Repr::Val(v), Repr::Node(n)) => {
                let d = self.root_data(n);
                if d.binding.as_ref() == Some(&v) {
                    return Err(Conflict);
                }
                d.excluded.insert(v);
                Ok(())
            }
            (Repr::Node(x), Repr::Node(y)) => {
                self.diseqs.push((x, y));
                Ok(())
            }
        }
    }

    fn assert_cmp_repr(&mut self, a: Repr, op: CmpOp, b: Repr) -> Result<(), Conflict> {
        match (a, b) {
            (Repr::Val(x), Repr::Val(y)) => match (x, y) {
                (Value::Int(i), Value::Int(j)) => {
                    if op.eval(i, j) {
                        Ok(())
                    } else {
                        Err(Conflict)
                    }
                }
                // Comparisons on non-integers are false.
                _ => Err(Conflict),
            },
            (Repr::Node(n), Repr::Val(v)) => self.tighten_const(n, op, v),
            (Repr::Val(v), Repr::Node(n)) => self.tighten_const(n, op.flip(), v),
            (Repr::Node(x), Repr::Node(y)) => {
                self.root_data(x).numeric = true;
                self.root_data(y).numeric = true;
                match op {
                    CmpOp::Lt => self.edges.push((x, y, true)),
                    CmpOp::Le => self.edges.push((x, y, false)),
                    CmpOp::Gt => self.edges.push((y, x, true)),
                    CmpOp::Ge => self.edges.push((y, x, false)),
                }
                Ok(())
            }
        }
    }

    /// Applies `node op k` for a constant `k`.
    fn tighten_const(&mut self, n: NodeId, op: CmpOp, v: Value) -> Result<(), Conflict> {
        let k = match v {
            Value::Int(k) => k,
            _ => return Err(Conflict),
        };
        let d = self.root_data(n);
        d.numeric = true;
        match op {
            CmpOp::Lt => d.hi = d.hi.tighten_upper(IntBound::Incl(k.saturating_sub(1))),
            CmpOp::Le => d.hi = d.hi.tighten_upper(IntBound::Incl(k)),
            CmpOp::Gt => d.lo = d.lo.tighten_lower(IntBound::Incl(k.saturating_add(1))),
            CmpOp::Ge => d.lo = d.lo.tighten_lower(IntBound::Incl(k)),
        }
        self.check_class(n)
    }

    fn assert_membership(&mut self, x: &Term, call: &Call, positive: bool) -> Result<(), Conflict> {
        match self.try_ground_call(call)? {
            Some(args) => {
                let set = self.resolver.resolve(&call.domain, &call.func, &args);
                self.apply_membership(x, set, positive)
            }
            None => {
                // Materialize the membership variable's node too, so the
                // enumerator sees its class even while the call is
                // deferred.
                let _ = self.repr(x)?;
                self.residuals.push(Residual {
                    x: x.clone(),
                    call: call.clone(),
                    positive,
                });
                Ok(())
            }
        }
    }

    /// Grounds the call arguments if every argument is a constant or a
    /// bound class; `None` when still unresolved. Always materializes
    /// solver nodes for *every* argument (the enumerator relies on every
    /// variable of the conjunction having a class).
    fn try_ground_call(&mut self, call: &Call) -> Result<Option<Vec<Value>>, Conflict> {
        let mut args = Vec::with_capacity(call.args.len());
        let mut unresolved = false;
        for t in &call.args {
            match self.repr(t)? {
                Repr::Val(v) => args.push(v),
                Repr::Node(n) => match self.root_data(n).binding.clone() {
                    Some(v) => args.push(v),
                    None => unresolved = true,
                },
            }
        }
        Ok(if unresolved { None } else { Some(args) })
    }

    fn apply_membership(
        &mut self,
        x: &Term,
        set: ValueSet,
        positive: bool,
    ) -> Result<(), Conflict> {
        match self.repr(x)? {
            Repr::Val(v) => {
                if set.contains(&v) == positive {
                    Ok(())
                } else {
                    Err(Conflict)
                }
            }
            Repr::Node(n) => {
                {
                    let d = self.root_data(n);
                    if let Some(b) = d.binding.clone() {
                        return if set.contains(&b) == positive {
                            Ok(())
                        } else {
                            Err(Conflict)
                        };
                    }
                    if positive {
                        d.sets.push(set);
                    } else {
                        d.anti.push(set);
                    }
                }
                self.check_class(n)
            }
        }
    }

    // ---- structural operations ------------------------------------------

    fn drain_ops(&mut self) -> Result<(), Conflict> {
        while let Some(op) = self.ops.pop_front() {
            match op {
                Op::Union(a, b) => self.do_union(a, b)?,
                Op::Bind(n, v) => self.do_bind(n, v)?,
            }
        }
        Ok(())
    }

    fn do_union(&mut self, a: NodeId, b: NodeId) -> Result<(), Conflict> {
        let Some((winner, loser)) = self.uf.union(a, b) else {
            return Ok(());
        };
        let ld = self.data[loser].take().expect("loser data");
        let winner_binding = self.data[winner]
            .as_ref()
            .expect("winner data")
            .binding
            .clone();

        let mut deferred_bind: Option<Value> = None;
        match (&winner_binding, &ld.binding) {
            (Some(x), Some(y)) if x != y => return Err(Conflict),
            (None, Some(y)) => deferred_bind = Some(y.clone()),
            _ => {}
        }
        let mut pending_unions: Vec<(NodeId, NodeId)> = Vec::new();
        {
            let wd = self.data[winner].as_mut().expect("winner data");
            wd.numeric |= ld.numeric;
            wd.lo = wd.lo.tighten_lower(ld.lo);
            wd.hi = wd.hi.tighten_upper(ld.hi);
            wd.excluded.extend(ld.excluded);
            wd.sets.extend(ld.sets);
            wd.anti.extend(ld.anti);
            for (name, lnode) in ld.fields {
                if let Some(&wnode) = wd.fields.get(&name) {
                    pending_unions.push((wnode, lnode));
                } else {
                    wd.fields.insert(name, lnode);
                }
            }
        }
        for (x, y) in pending_unions {
            self.ops.push_back(Op::Union(x, y));
        }
        if let Some(v) = deferred_bind {
            // Clear and re-bind so the merged class revalidates fully.
            self.data[winner].as_mut().expect("winner data").binding = None;
            self.ops.push_back(Op::Bind(winner, v));
        } else if let Some(v) = winner_binding {
            // Winner was already bound: validate against merged constraints
            // and propagate to newly acquired field nodes.
            self.validate_binding(winner, &v)?;
            self.propagate_binding_to_fields(winner, &v)?;
        }
        self.check_class(winner)
    }

    fn do_bind(&mut self, n: NodeId, v: Value) -> Result<(), Conflict> {
        let r = self.uf.find(n);
        let d = self.data[r].as_mut().expect("root data");
        if let Some(b) = &d.binding {
            return if *b == v { Ok(()) } else { Err(Conflict) };
        }
        d.binding = Some(v.clone());
        self.validate_binding(r, &v)?;
        self.propagate_binding_to_fields(r, &v)
    }

    fn validate_binding(&mut self, r: NodeId, v: &Value) -> Result<(), Conflict> {
        let d = self.data[self.uf.find(r)].as_ref().expect("root data");
        if d.numeric && !matches!(v, Value::Int(_)) {
            return Err(Conflict);
        }
        if let Value::Int(i) = v {
            if let IntBound::Incl(lo) = d.lo {
                if *i < lo {
                    return Err(Conflict);
                }
            }
            if let IntBound::Incl(hi) = d.hi {
                if *i > hi {
                    return Err(Conflict);
                }
            }
        } else if !matches!((d.lo, d.hi), (IntBound::Open, IntBound::Open)) {
            return Err(Conflict);
        }
        if d.excluded.contains(v) {
            return Err(Conflict);
        }
        if d.sets.iter().any(|s| !s.contains(v)) {
            return Err(Conflict);
        }
        if d.anti.iter().any(|s| s.contains(v)) {
            return Err(Conflict);
        }
        Ok(())
    }

    fn propagate_binding_to_fields(&mut self, r: NodeId, v: &Value) -> Result<(), Conflict> {
        let fields: Vec<(Arc<str>, NodeId)> = {
            let d = self.data[self.uf.find(r)].as_ref().expect("root data");
            d.fields.iter().map(|(k, &n)| (k.clone(), n)).collect()
        };
        for (name, fnode) in fields {
            match v.field(&name) {
                Some(fv) => self.ops.push_back(Op::Bind(fnode, fv.clone())),
                None => return Err(Conflict),
            }
        }
        Ok(())
    }

    /// Cheap per-class consistency check (no witness search).
    fn check_class(&mut self, n: NodeId) -> Result<(), Conflict> {
        let r = self.uf.find(n);
        let d = self.data[r].as_ref().expect("root data");
        if let (IntBound::Incl(lo), IntBound::Incl(hi)) = (d.lo, d.hi) {
            if lo > hi {
                return Err(Conflict);
            }
        }
        if let Some(b) = &d.binding {
            if d.sets.iter().any(|s| !s.contains(b)) || d.anti.iter().any(|s| s.contains(b)) {
                return Err(Conflict);
            }
            if d.excluded.contains(b) {
                return Err(Conflict);
            }
            // The interval may have been tightened *after* the binding
            // was set: re-validate (the bind-time check only covers the
            // constraints known then).
            match b {
                Value::Int(i) => {
                    if let IntBound::Incl(lo) = d.lo {
                        if *i < lo {
                            return Err(Conflict);
                        }
                    }
                    if let IntBound::Incl(hi) = d.hi {
                        if *i > hi {
                            return Err(Conflict);
                        }
                    }
                }
                _ => {
                    if d.numeric || !matches!((d.lo, d.hi), (IntBound::Open, IntBound::Open)) {
                        return Err(Conflict);
                    }
                }
            }
        }
        if d.sets.iter().any(|s| s.is_empty()) {
            return Err(Conflict);
        }
        Ok(())
    }

    // ---- propagation loop ------------------------------------------------

    fn propagate_fixpoint(&mut self) -> Result<(), Conflict> {
        self.drain_ops()?;
        loop {
            let mut changed = self.retry_residuals()?;
            changed |= self.scc_merge()?;
            if changed {
                continue;
            }
            self.propagate_bounds()?;
            changed = self.promote_singletons()?;
            if !changed {
                break;
            }
        }
        Ok(())
    }

    fn retry_residuals(&mut self) -> Result<bool, Conflict> {
        let mut remaining = Vec::new();
        let mut changed = false;
        let residuals = std::mem::take(&mut self.residuals);
        for res in residuals {
            match self.try_ground_call(&res.call)? {
                Some(args) => {
                    let set = self
                        .resolver
                        .resolve(&res.call.domain, &res.call.func, &args);
                    self.apply_membership(&res.x, set, res.positive)?;
                    self.drain_ops()?;
                    changed = true;
                }
                None => remaining.push(res),
            }
        }
        self.residuals = remaining;
        Ok(changed)
    }

    /// Contracts strongly connected components of the ordering graph.
    /// A strict edge within a component is a contradiction (`X < X`).
    fn scc_merge(&mut self) -> Result<bool, Conflict> {
        if self.edges.is_empty() {
            return Ok(false);
        }
        // Canonicalize edges to roots, dropping trivial `a <= a` loops and
        // rejecting `a < a`.
        let mut canon: Vec<(NodeId, NodeId, bool)> = Vec::with_capacity(self.edges.len());
        let edges = self.edges.clone();
        for (a, b, strict) in edges {
            let (ra, rb) = (self.uf.find(a), self.uf.find(b));
            if ra == rb {
                if strict {
                    return Err(Conflict);
                }
                continue;
            }
            canon.push((ra, rb, strict));
        }
        // Tarjan over the set of roots involved.
        let mut ids: Vec<NodeId> = canon.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        ids.sort_unstable();
        ids.dedup();
        let index_of: FxHashMap<NodeId, usize> =
            ids.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let n = ids.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b, _) in &canon {
            adj[index_of[&a]].push(index_of[&b]);
        }
        let sccs = tarjan_sccs(&adj);
        // Map node -> scc id.
        let mut comp = vec![0usize; n];
        for (cid, scc) in sccs.iter().enumerate() {
            for &v in scc {
                comp[v] = cid;
            }
        }
        let mut changed = false;
        for scc in &sccs {
            if scc.len() > 1 {
                // Everything in one SCC must be equal; merge.
                for w in scc.windows(2) {
                    self.ops.push_back(Op::Union(ids[w[0]], ids[w[1]]));
                }
                changed = true;
            }
        }
        // Strict edge inside a component: contradiction.
        for &(a, b, strict) in &canon {
            if strict && comp[index_of[&a]] == comp[index_of[&b]] {
                return Err(Conflict);
            }
        }
        self.drain_ops()?;
        Ok(changed)
    }

    /// Exact bound propagation over the (acyclic, post-SCC) ordering graph:
    /// lower bounds flow forward in topological order, upper bounds flow
    /// backward.
    fn propagate_bounds(&mut self) -> Result<(), Conflict> {
        if self.edges.is_empty() {
            return Ok(());
        }
        let mut canon: Vec<(NodeId, NodeId, bool)> = Vec::new();
        let edges = self.edges.clone();
        for (a, b, strict) in edges {
            let (ra, rb) = (self.uf.find(a), self.uf.find(b));
            if ra == rb {
                if strict {
                    return Err(Conflict);
                }
                continue;
            }
            canon.push((ra, rb, strict));
        }
        if canon.is_empty() {
            return Ok(());
        }
        let mut ids: Vec<NodeId> = canon.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        ids.sort_unstable();
        ids.dedup();
        let index_of: FxHashMap<NodeId, usize> =
            ids.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let n = ids.len();

        // Effective bounds, folding in bindings as point intervals.
        let mut lo = vec![IntBound::Open; n];
        let mut hi = vec![IntBound::Open; n];
        for (i, &r) in ids.iter().enumerate() {
            let d = self.data[r].as_ref().expect("root data");
            lo[i] = d.lo;
            hi[i] = d.hi;
            match &d.binding {
                Some(Value::Int(v)) => {
                    lo[i] = lo[i].tighten_lower(IntBound::Incl(*v));
                    hi[i] = hi[i].tighten_upper(IntBound::Incl(*v));
                }
                Some(_) => return Err(Conflict), // non-int in ordering graph
                None => {}
            }
        }

        // Kahn topological order.
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
        let mut inc: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
        for &(a, b, strict) in &canon {
            let (ia, ib) = (index_of[&a], index_of[&b]);
            out[ia].push((ib, strict));
            inc[ib].push((ia, strict));
            indeg[ib] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            topo.push(i);
            for &(j, _) in &out[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
        if topo.len() != n {
            // Residual cycle (nonstrict, should have merged): be safe.
            self.unknown = true;
            return Ok(());
        }
        for &i in &topo {
            if let IntBound::Incl(l) = lo[i] {
                for &(j, strict) in &out[i] {
                    let bound = IntBound::Incl(l.saturating_add(strict as i64));
                    lo[j] = lo[j].tighten_lower(bound);
                }
            }
        }
        for &i in topo.iter().rev() {
            if let IntBound::Incl(h) = hi[i] {
                for &(j, strict) in &inc[i] {
                    let bound = IntBound::Incl(h.saturating_sub(strict as i64));
                    hi[j] = hi[j].tighten_upper(bound);
                }
            }
        }
        // Write back and check.
        for (i, &r) in ids.iter().enumerate() {
            let d = self.data[r].as_mut().expect("root data");
            d.numeric = true;
            d.lo = d.lo.tighten_lower(lo[i]);
            d.hi = d.hi.tighten_upper(hi[i]);
            if let (IntBound::Incl(l), IntBound::Incl(h)) = (d.lo, d.hi) {
                if l > h {
                    return Err(Conflict);
                }
            }
            if let Some(Value::Int(v)) = &d.binding {
                if let IntBound::Incl(l) = d.lo {
                    if *v < l {
                        return Err(Conflict);
                    }
                }
                if let IntBound::Incl(h) = d.hi {
                    if *v > h {
                        return Err(Conflict);
                    }
                }
            }
        }
        Ok(())
    }

    /// Binds classes whose candidate set shrank to exactly one value.
    fn promote_singletons(&mut self) -> Result<bool, Conflict> {
        let mut changed = false;
        let roots = self.live_roots();
        for r in roots {
            let d = self.data[r].as_ref().expect("root data");
            if d.binding.is_some() {
                continue;
            }
            if let Some(cands) = self.compute_candidates(r, 64)? {
                match cands.len() {
                    0 => return Err(Conflict),
                    1 => {
                        let v = cands.into_iter().next().unwrap();
                        self.ops.push_back(Op::Bind(r, v));
                        self.drain_ops()?;
                        changed = true;
                    }
                    _ => {}
                }
            }
        }
        Ok(changed)
    }

    fn live_roots(&mut self) -> Vec<NodeId> {
        (0..self.data.len())
            .filter(|&i| self.data[i].is_some() && self.uf.find(i) == i)
            .collect()
    }

    /// Computes candidate values for class `r` when finitely enumerable
    /// within `limit`; `Ok(None)` when infinite/oversized.
    fn compute_candidates(&self, r: NodeId, limit: usize) -> Result<Option<Vec<Value>>, Conflict> {
        let d = self.data[r].as_ref().expect("root data");
        if let Some(b) = &d.binding {
            return Ok(Some(vec![b.clone()]));
        }
        let mut acc = ValueSet::All;
        for s in &d.sets {
            acc = acc.intersect(s);
        }
        if d.numeric {
            acc = acc.intersect(&ValueSet::IntRange(d.lo, d.hi));
        }
        if acc.is_empty() {
            return Err(Conflict);
        }
        match acc.enumerate(limit) {
            Some(vals) => {
                let filtered: Vec<Value> = vals
                    .into_iter()
                    .filter(|v| !d.excluded.contains(v))
                    .filter(|v| !d.anti.iter().any(|a| a.contains(v)))
                    .collect();
                if filtered.is_empty() {
                    return Err(Conflict);
                }
                Ok(Some(filtered))
            }
            None => {
                // Infinite or oversized. Check the anti-sets cannot cover
                // the whole candidate space.
                for a in &d.anti {
                    if covers(a, &acc) {
                        return Err(Conflict);
                    }
                }
                Ok(None)
            }
        }
    }

    // ---- final verdict ---------------------------------------------------

    /// `Ok(true)` = definitely satisfiable; `Ok(false)` = unknown;
    /// `Err` = definitely unsatisfiable.
    fn final_check(&mut self) -> Result<bool, Conflict> {
        let mut definitive = !self.unknown && self.residuals.is_empty();

        let roots = self.live_roots();
        let mut cands: FxHashMap<NodeId, Candidates> = FxHashMap::default();
        for r in &roots {
            match self.compute_candidates(*r, self.config.enum_limit)? {
                Some(v) => {
                    cands.insert(*r, Candidates::Finite(v));
                }
                None => {
                    cands.insert(*r, Candidates::Infinite);
                }
            }
        }

        // Disequality clusters: only finite-candidate classes can run out
        // of room. (An infinite class can always dodge finitely many
        // conflicting neighbours.)
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        let diseqs = self.diseqs.clone();
        for (a, b) in diseqs {
            let (ra, rb) = (self.uf.find(a), self.uf.find(b));
            if ra == rb {
                return Err(Conflict);
            }
            let fa = matches!(cands.get(&ra), Some(Candidates::Finite(_)));
            let fb = matches!(cands.get(&rb), Some(Candidates::Finite(_)));
            if fa && fb {
                pairs.push((ra.min(rb), ra.max(rb)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        if !pairs.is_empty() {
            match witness_search(&pairs, &cands, self.config.witness_budget) {
                WitnessOutcome::Found => {}
                WitnessOutcome::Impossible => return Err(Conflict),
                WitnessOutcome::BudgetExhausted => definitive = false,
            }
        }
        Ok(definitive)
    }

    /// Exposes, for the enumerator: the root and candidates of each
    /// variable seen by this solver.
    pub(crate) fn var_classes(&mut self) -> FxHashMap<Var, NodeId> {
        let entries: Vec<(Var, NodeId)> = self.var_nodes.iter().map(|(v, n)| (*v, *n)).collect();
        entries
            .into_iter()
            .map(|(v, n)| (v, self.uf.find(n)))
            .collect()
    }

    /// Candidates for a class root under the configured enumeration limit.
    pub(crate) fn candidates_for_root(&self, r: NodeId) -> Result<Candidates, Conflict> {
        match self.compute_candidates(r, self.config.enum_limit)? {
            Some(v) => Ok(Candidates::Finite(v)),
            None => Ok(Candidates::Infinite),
        }
    }
}

/// Whether value-set `a` is a superset of `b` (sound, not complete: only
/// the cases needed to refute `X in b` ∧ `X notin a`).
fn covers(a: &ValueSet, b: &ValueSet) -> bool {
    use ValueSet::*;
    match (a, b) {
        (All, _) => true,
        (IntRange(alo, ahi), IntRange(blo, bhi)) => {
            let lo_ok = match (alo, blo) {
                (IntBound::Open, _) => true,
                (IntBound::Incl(_), IntBound::Open) => false,
                (IntBound::Incl(x), IntBound::Incl(y)) => x <= y,
            };
            let hi_ok = match (ahi, bhi) {
                (IntBound::Open, _) => true,
                (IntBound::Incl(_), IntBound::Open) => false,
                (IntBound::Incl(x), IntBound::Incl(y)) => x >= y,
            };
            lo_ok && hi_ok
        }
        _ => false,
    }
}

enum WitnessOutcome {
    Found,
    Impossible,
    BudgetExhausted,
}

/// Backtracking search for an assignment of finite-candidate classes that
/// satisfies all pairwise disequalities. Complete within the budget.
fn witness_search(
    pairs: &[(NodeId, NodeId)],
    cands: &FxHashMap<NodeId, Candidates>,
    budget: usize,
) -> WitnessOutcome {
    let mut nodes: Vec<NodeId> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let idx: FxHashMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let lists: Vec<&Vec<Value>> = nodes
        .iter()
        .map(|n| match cands.get(n) {
            Some(Candidates::Finite(v)) => v,
            _ => unreachable!("only finite classes enter witness search"),
        })
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for &(a, b) in pairs {
        let (ia, ib) = (idx[&a], idx[&b]);
        adj[ia].push(ib);
        adj[ib].push(ia);
    }
    // Order by ascending candidate count (fail-first).
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by_key(|&i| lists[i].len());

    let mut chosen: Vec<Option<&Value>> = vec![None; nodes.len()];
    let mut steps = 0usize;

    fn rec<'v>(
        pos: usize,
        order: &[usize],
        lists: &[&'v Vec<Value>],
        adj: &[Vec<usize>],
        chosen: &mut Vec<Option<&'v Value>>,
        steps: &mut usize,
        budget: usize,
    ) -> Option<bool> {
        if pos == order.len() {
            return Some(true);
        }
        let i = order[pos];
        for v in lists[i] {
            *steps += 1;
            if *steps > budget {
                return None;
            }
            if adj[i].iter().any(|&j| chosen[j] == Some(v)) {
                continue;
            }
            chosen[i] = Some(v);
            match rec(pos + 1, order, lists, adj, chosen, steps, budget) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            chosen[i] = None;
        }
        Some(false)
    }

    match rec(0, &order, &lists, &adj, &mut chosen, &mut steps, budget) {
        Some(true) => WitnessOutcome::Found,
        Some(false) => WitnessOutcome::Impossible,
        None => WitnessOutcome::BudgetExhausted,
    }
}

/// Iterative Tarjan SCC over an adjacency list; returns components in
/// reverse topological order.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack: (node, child cursor).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call_stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, cursor)) = call_stack.last() {
            if cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if cursor < adj[v].len() {
                call_stack.last_mut().expect("frame").1 += 1;
                let w = adj[v][cursor];
                if index[w] == usize::MAX {
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::NoDomains;

    fn solve(c: &Constraint) -> Truth {
        let cfg = SolverConfig::default();
        let mut s = ConjSolver::new(&NoDomains, &cfg);
        match s.assert_all(c) {
            Err(Conflict) => Truth::Unsat,
            Ok(()) => s.verdict(),
        }
    }

    fn x() -> Term {
        Term::var(Var(0))
    }
    fn y() -> Term {
        Term::var(Var(1))
    }
    fn z() -> Term {
        Term::var(Var(2))
    }

    #[test]
    fn trivial_sat() {
        assert_eq!(solve(&Constraint::truth()), Truth::Sat);
        assert_eq!(solve(&Constraint::eq(x(), Term::int(3))), Truth::Sat);
    }

    #[test]
    fn eq_conflict() {
        let c = Constraint::eq(x(), Term::int(1)).and(Constraint::eq(x(), Term::int(2)));
        assert_eq!(solve(&c), Truth::Unsat);
    }

    #[test]
    fn neq_conflict_through_equality() {
        let c = Constraint::eq(x(), y())
            .and(Constraint::eq(y(), Term::int(5)))
            .and(Constraint::neq(x(), Term::int(5)));
        assert_eq!(solve(&c), Truth::Unsat);
    }

    #[test]
    fn interval_conflict() {
        let c = Constraint::cmp(x(), CmpOp::Le, Term::int(3)).and(Constraint::cmp(
            x(),
            CmpOp::Gt,
            Term::int(3),
        ));
        assert_eq!(solve(&c), Truth::Unsat);
        let c2 = Constraint::cmp(x(), CmpOp::Le, Term::int(3)).and(Constraint::cmp(
            x(),
            CmpOp::Ge,
            Term::int(3),
        ));
        assert_eq!(solve(&c2), Truth::Sat);
    }

    #[test]
    fn interval_point_excluded() {
        // x in [3,3] and x != 3: unsat via singleton promotion.
        let c = Constraint::cmp(x(), CmpOp::Le, Term::int(3))
            .and(Constraint::cmp(x(), CmpOp::Ge, Term::int(3)))
            .and(Constraint::neq(x(), Term::int(3)));
        assert_eq!(solve(&c), Truth::Unsat);
    }

    #[test]
    fn ordering_cycle_merges() {
        // x <= y, y <= z, z <= x, x = 7 => all are 7; y != 7 contradicts.
        let c = Constraint::cmp(x(), CmpOp::Le, y())
            .and(Constraint::cmp(y(), CmpOp::Le, z()))
            .and(Constraint::cmp(z(), CmpOp::Le, x()))
            .and(Constraint::eq(x(), Term::int(7)))
            .and(Constraint::neq(y(), Term::int(7)));
        assert_eq!(solve(&c), Truth::Unsat);
    }

    #[test]
    fn strict_cycle_unsat() {
        let c = Constraint::cmp(x(), CmpOp::Lt, y()).and(Constraint::cmp(y(), CmpOp::Lt, x()));
        assert_eq!(solve(&c), Truth::Unsat);
    }

    #[test]
    fn bound_propagation_through_chain() {
        // 0 <= x < y < z <= 2 over ints: x=0,y=1,z=2 forced; z != 2 unsat.
        let c = Constraint::cmp(x(), CmpOp::Ge, Term::int(0))
            .and(Constraint::cmp(x(), CmpOp::Lt, y()))
            .and(Constraint::cmp(y(), CmpOp::Lt, z()))
            .and(Constraint::cmp(z(), CmpOp::Le, Term::int(2)))
            .and(Constraint::neq(z(), Term::int(2)));
        assert_eq!(solve(&c), Truth::Unsat);
        let sat = Constraint::cmp(x(), CmpOp::Ge, Term::int(0))
            .and(Constraint::cmp(x(), CmpOp::Lt, y()))
            .and(Constraint::cmp(y(), CmpOp::Lt, z()))
            .and(Constraint::cmp(z(), CmpOp::Le, Term::int(2)));
        assert_eq!(solve(&sat), Truth::Sat);
    }

    #[test]
    fn diseq_pigeonhole() {
        // x,y,z in {1,2} pairwise distinct: unsat (pigeonhole).
        let two = |t: Term| {
            Constraint::cmp(t.clone(), CmpOp::Ge, Term::int(1)).and(Constraint::cmp(
                t,
                CmpOp::Le,
                Term::int(2),
            ))
        };
        let c = two(x())
            .and(two(y()))
            .and(two(z()))
            .and(Constraint::neq(x(), y()))
            .and(Constraint::neq(y(), z()))
            .and(Constraint::neq(x(), z()));
        assert_eq!(solve(&c), Truth::Unsat);
        // With three candidate values it becomes satisfiable.
        let three = |t: Term| {
            Constraint::cmp(t.clone(), CmpOp::Ge, Term::int(1)).and(Constraint::cmp(
                t,
                CmpOp::Le,
                Term::int(3),
            ))
        };
        let c2 = three(x())
            .and(three(y()))
            .and(three(z()))
            .and(Constraint::neq(x(), y()))
            .and(Constraint::neq(y(), z()))
            .and(Constraint::neq(x(), z()));
        assert_eq!(solve(&c2), Truth::Sat);
    }

    #[test]
    fn field_congruence() {
        // x = y, x.name = "a", y.name = "b" -> unsat.
        let c = Constraint::eq(x(), y())
            .and(Constraint::eq(Term::field(x(), "name"), Term::str("a")))
            .and(Constraint::eq(Term::field(y(), "name"), Term::str("b")));
        assert_eq!(solve(&c), Truth::Unsat);
    }

    #[test]
    fn field_of_bound_record() {
        let rec = Value::record(vec![("name", Value::str("a"))]);
        let c = Constraint::eq(x(), Term::Const(rec))
            .and(Constraint::eq(Term::field(x(), "name"), Term::str("a")));
        assert_eq!(solve(&c), Truth::Sat);
        let rec2 = Value::record(vec![("name", Value::str("a"))]);
        let c2 = Constraint::eq(x(), Term::Const(rec2))
            .and(Constraint::eq(Term::field(x(), "name"), Term::str("b")));
        assert_eq!(solve(&c2), Truth::Unsat);
    }

    #[test]
    fn missing_field_is_unsat() {
        let rec = Value::record(vec![("name", Value::str("a"))]);
        let c = Constraint::eq(x(), Term::Const(rec))
            .and(Constraint::eq(Term::field(x(), "zip"), Term::int(1)));
        assert_eq!(solve(&c), Truth::Unsat);
    }

    #[test]
    fn numeric_class_rejects_string() {
        let c = Constraint::cmp(x(), CmpOp::Ge, Term::int(0))
            .and(Constraint::eq(x(), Term::str("nope")));
        assert_eq!(solve(&c), Truth::Unsat);
    }

    #[test]
    fn membership_with_resolver() {
        struct R;
        impl DomainResolver for R {
            fn resolve(&self, _d: &str, f: &str, args: &[Value]) -> ValueSet {
                match f {
                    "geq" => match args[0] {
                        Value::Int(k) => ValueSet::ints_from(k),
                        _ => ValueSet::Empty,
                    },
                    "pair" => ValueSet::finite([Value::int(1), Value::int(2)]),
                    _ => ValueSet::Empty,
                }
            }
        }
        let cfg = SolverConfig::default();
        // in(x, d:geq(5)) & x <= 4 : unsat
        let c = Constraint::member(x(), Call::new("d", "geq", vec![Term::int(5)]))
            .and(Constraint::cmp(x(), CmpOp::Le, Term::int(4)));
        let mut s = ConjSolver::new(&R, &cfg);
        let t = match s.assert_all(&c) {
            Err(Conflict) => Truth::Unsat,
            Ok(()) => s.verdict(),
        };
        assert_eq!(t, Truth::Unsat);
        // in(x, d:pair()) & x != 1 & x != 2 : unsat
        let c2 = Constraint::member(x(), Call::new("d", "pair", vec![]))
            .and(Constraint::neq(x(), Term::int(1)))
            .and(Constraint::neq(x(), Term::int(2)));
        let mut s2 = ConjSolver::new(&R, &cfg);
        let t2 = match s2.assert_all(&c2) {
            Err(Conflict) => Truth::Unsat,
            Ok(()) => s2.verdict(),
        };
        assert_eq!(t2, Truth::Unsat);
    }

    #[test]
    fn residual_call_yields_unknown() {
        // in(x, d:f(y)) with y unbound: cannot evaluate -> Unknown.
        let c = Constraint::member(x(), Call::new("d", "f", vec![y()]));
        assert_eq!(solve(&c), Truth::Unknown);
    }

    #[test]
    fn residual_resolves_after_binding() {
        struct R;
        impl DomainResolver for R {
            fn resolve(&self, _d: &str, _f: &str, args: &[Value]) -> ValueSet {
                match &args[0] {
                    Value::Int(k) => ValueSet::singleton(Value::Int(k + 1)),
                    _ => ValueSet::Empty,
                }
            }
        }
        let cfg = SolverConfig::default();
        // in(x, d:succ(y)) & y = 1 & x = 3 : succ(1)={2}, x=3 not in it.
        let c = Constraint::member(x(), Call::new("d", "succ", vec![y()]))
            .and(Constraint::eq(y(), Term::int(1)))
            .and(Constraint::eq(x(), Term::int(3)));
        let mut s = ConjSolver::new(&R, &cfg);
        let t = match s.assert_all(&c) {
            Err(Conflict) => Truth::Unsat,
            Ok(()) => s.verdict(),
        };
        assert_eq!(t, Truth::Unsat);
    }

    #[test]
    fn notin_finite_unsat() {
        struct R;
        impl DomainResolver for R {
            fn resolve(&self, _d: &str, _f: &str, _a: &[Value]) -> ValueSet {
                ValueSet::ints_from(0)
            }
        }
        let cfg = SolverConfig::default();
        // x >= 5 & notin(x, d:nonneg()) : candidates [5,inf) subset of anti.
        let c = Constraint::cmp(x(), CmpOp::Ge, Term::int(5)).and(Constraint::lit(Lit::NotIn(
            x(),
            Call::new("d", "nonneg", vec![]),
        )));
        let mut s = ConjSolver::new(&R, &cfg);
        let t = match s.assert_all(&c) {
            Err(Conflict) => Truth::Unsat,
            Ok(()) => s.verdict(),
        };
        assert_eq!(t, Truth::Unsat);
    }

    #[test]
    fn var_var_diseq_same_class_unsat() {
        let c = Constraint::eq(x(), y()).and(Constraint::neq(x(), y()));
        assert_eq!(solve(&c), Truth::Unsat);
    }

    #[test]
    fn binding_revalidated_after_later_tightening() {
        // Regression (found by proptest): the bind happens before the
        // interval tightening, so the conflict must be caught when the
        // interval arrives, not only at bind time.
        let c =
            Constraint::eq(Term::int(6), x()).and(Constraint::cmp(Term::int(1), CmpOp::Gt, x()));
        assert_eq!(solve(&c), Truth::Unsat);
        // Same for exclusions arriving after the bind.
        let c2 = Constraint::eq(x(), Term::int(3)).and(Constraint::neq(x(), Term::int(3)));
        assert_eq!(solve(&c2), Truth::Unsat);
        // And for a non-integer binding meeting a later interval.
        let c3 =
            Constraint::eq(x(), Term::str("s")).and(Constraint::cmp(x(), CmpOp::Le, Term::int(9)));
        assert_eq!(solve(&c3), Truth::Unsat);
    }
}
