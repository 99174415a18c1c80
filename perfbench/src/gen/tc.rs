//! Update stream over recursive transitive closure on a fixed DAG: every
//! batch deletes one present edge and re-inserts the edge the previous
//! batch deleted, so exactly one edge is missing at every batch boundary.
//! What a deletion costs follows the number of paths through its edge,
//! from one to thousands, so the stream does not draw edges at random: it
//! walks one seeded permutation of all edges over and over, and any
//! window of as many batches as there are edges does the same work.

use super::{shuffle, Read, UpdateStream};
use mmv_bench::gen::ground::{ground_to_constrained, tc_program};
use mmv_constraints::Value;
use mmv_core::batch::UpdateBatch;
use mmv_core::{ConstrainedAtom, ConstrainedDatabase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random banded DAG: `edges` distinct pairs `(a, b)` with
/// `a < b <= a + span`. Short edges make long paths, and a supported
/// view holds one entry per path, so its size swings by an order of
/// magnitude between graphs: the workload fixes `graph_seed` and only
/// the update order follows the run's seed.
pub fn dag_edges(nodes: usize, edges: usize, span: usize, graph_seed: u64) -> Vec<(i64, i64)> {
    assert!(nodes >= 2 && span >= 1 && edges <= (nodes - span) * span);
    let mut rng = SmallRng::seed_from_u64(graph_seed);
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(edges);
    while out.len() < edges {
        let a = rng.gen_range(0..(nodes - 1) as i64);
        let b = a + rng.gen_range(1..=span as i64);
        if b < nodes as i64 && seen.insert((a, b)) {
            out.push((a, b));
        }
    }
    out
}

pub struct TcStream {
    edges: Vec<(i64, i64)>,
    nodes: usize,
    /// The order edges are deleted in, cycled through.
    order: Vec<usize>,
    issued: usize,
    /// Index of the edge the previous batch deleted.
    missing: Option<usize>,
}

fn edge_atom(&(a, b): &(i64, i64)) -> ConstrainedAtom {
    ConstrainedAtom::fact("edge", vec![Value::int(a), Value::int(b)])
}

impl TcStream {
    pub fn new(nodes: usize, edges: Vec<(i64, i64)>, seed: u64) -> Self {
        assert!(edges.len() >= 2);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7c_57ea);
        let mut order: Vec<usize> = (0..edges.len()).collect();
        shuffle(&mut order, &mut rng);
        TcStream {
            edges,
            nodes,
            order,
            issued: 0,
            missing: None,
        }
    }
}

impl UpdateStream for TcStream {
    fn initial_db(&self) -> ConstrainedDatabase {
        ground_to_constrained(&tc_program(&self.edges))
    }

    fn next_batch(&mut self) -> UpdateBatch {
        // Never the missing edge: that is the permutation's previous
        // position, and a permutation of two or more edges has no
        // repeats in a row. (After a settling batch nothing is missing.)
        let pick = self.order[self.issued % self.order.len()];
        self.issued += 1;
        let batch = UpdateBatch {
            deletes: vec![edge_atom(&self.edges[pick])],
            inserts: self
                .missing
                .iter()
                .map(|&m| edge_atom(&self.edges[m]))
                .collect(),
        };
        self.missing = Some(pick);
        batch
    }

    fn current_db(&self) -> ConstrainedDatabase {
        let present: Vec<(i64, i64)> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != self.missing)
            .map(|(_, e)| *e)
            .collect();
        ground_to_constrained(&tc_program(&present))
    }

    /// Re-inserts the missing edge: the closure's size depends on which
    /// edge that is.
    fn settle(&mut self) -> Option<UpdateBatch> {
        let m = self.missing.take()?;
        Some(UpdateBatch::inserting(vec![edge_atom(&self.edges[m])]))
    }

    fn reads(&self, n: usize) -> Vec<Read> {
        // Hits are pairs that stay reachable whichever single edge is
        // missing; misses are the same pairs reversed, which never hold
        // in a DAG whose edges all ascend.
        let closures: Vec<std::collections::BTreeSet<(i64, i64)>> = (0..self.edges.len())
            .map(|skip| {
                closure(
                    self.nodes,
                    self.edges
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != skip)
                        .map(|(_, e)| *e),
                )
            })
            .collect();
        let mut always: Vec<(i64, i64)> = closures[0]
            .iter()
            .filter(|p| closures.iter().all(|c| c.contains(p)))
            .copied()
            .collect();
        always.sort_unstable();
        assert!(
            !always.is_empty(),
            "graph has no pair that survives every single-edge deletion"
        );
        let mut rng = SmallRng::seed_from_u64(0x0ead_5eed);
        (0..n)
            .map(|i| {
                let hit = i % 2 == 0;
                let (a, b) = always[rng.gen_range(0..always.len())];
                let args = if hit { vec![a, b] } else { vec![b, a] };
                Read {
                    pred: "tc".to_string(),
                    args: args.into_iter().map(Value::int).collect(),
                    expect: hit,
                }
            })
            .collect()
    }
}

/// Reachable pairs of an ascending-edge DAG.
fn closure(
    nodes: usize,
    edges: impl Iterator<Item = (i64, i64)>,
) -> std::collections::BTreeSet<(i64, i64)> {
    let mut succ = vec![Vec::new(); nodes];
    for (a, b) in edges {
        succ[a as usize].push(b as usize);
    }
    let mut reach = vec![std::collections::BTreeSet::new(); nodes];
    for a in (0..nodes).rev() {
        let mut r = std::collections::BTreeSet::new();
        for &b in &succ[a] {
            r.insert(b);
            r.extend(reach[b].iter().copied());
        }
        reach[a] = r;
    }
    reach
        .iter()
        .enumerate()
        .flat_map(|(a, r)| r.iter().map(move |&b| (a as i64, b as i64)))
        .collect()
}
