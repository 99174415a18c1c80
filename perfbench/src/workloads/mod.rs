//! The four workloads and the two runs (`e2e`: untraced, end-to-end
//! metrics; `layers`: traced, per-layer metrics) that measure them.
//!
//! Load model: closed loop. One writer thread applies batches and waits
//! for each reply; durable windows add one reader thread that loops
//! `snapshot().ask`. The service runs with `ViewService::builder()`
//! defaults (observability on, `ShardSpec::auto`) and the worker pool
//! pinned to [`POOL_WIDTH`].

pub mod e2e;
pub mod layers;
pub mod run;

use crate::gen::layered::LayeredStream;
use crate::gen::tc::{dag_edges, TcStream};
use crate::gen::UpdateStream;
use mmv_bench::gen::constrained::LayeredSpec;
use mmv_core::SupportMode;

/// Worker-pool width every service and bare replay runs with.
pub const POOL_WIDTH: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Program {
    /// `LayeredSpec { layers: 3, preds_per_layer: 4, body_atoms: 1 }`
    /// with this many interval facts per layer-0 predicate.
    Layered { facts_per_pred: usize },
    /// Transitive closure over the fixed 40-node / 53-edge DAG.
    Tc,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub mode: SupportMode,
    /// The main write window itself runs durable with a reader beside
    /// the writer (otherwise it runs in memory with the writer alone,
    /// and a shorter durable window follows it).
    pub durable_main: bool,
    /// Batches per in-memory write segment (0 for a durable-main
    /// workload, whose segments follow `checkpoint_every`). The service
    /// is restarted from the stream's current database after each: the
    /// store never reclaims the slots of replaced entries and every
    /// batch scans all slots, so batch latency climbs without bound on a
    /// stationary stream; restarting bounds it to a sawtooth whose shape
    /// repeats.
    pub segment_batches: usize,
    /// Checkpoint cadence of durable windows. A durable segment ends
    /// half a cadence past a checkpoint, so every recovery loads one
    /// checkpoint and replays the same number of records.
    pub checkpoint_every: u64,
    /// Quiescent point reads per round.
    pub reads_per_round: usize,
    program: Program,
}

const TC_NODES: usize = 40;
const TC_EDGES: usize = 53;
const TC_SPAN: usize = 5;
/// Chosen for its closure: 4,455 supported entries.
const TC_GRAPH_SEED: u64 = 129;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "layered_stdel",
        why: "16k non-ground interval entries with supports, in-memory log: StDel, insertion and the solver do the work",
        mode: SupportMode::WithSupports,
        durable_main: false,
        segment_batches: 160,
        checkpoint_every: 16,
        reads_per_round: 256,
        program: Program::Layered { facts_per_pred: 1024 },
    },
    Spec {
        name: "layered_dred",
        why: "same program and updates without supports: Extended DRed over-deletes and rederives, StDel is bypassed",
        mode: SupportMode::Plain,
        durable_main: false,
        segment_batches: 32,
        checkpoint_every: 8,
        reads_per_round: 384,
        program: Program::Layered { facts_per_pred: 1024 },
    },
    Spec {
        name: "tc_ground",
        why: "recursive transitive closure over ground facts: joins, support walks and recursive insertion, little solver work",
        mode: SupportMode::WithSupports,
        durable_main: false,
        // One walk through the 53 edges per segment, half a walk per
        // replay: every round does the same work.
        segment_batches: TC_EDGES,
        checkpoint_every: TC_EDGES as u64 + 1,
        reads_per_round: 48,
        program: Program::Tc,
    },
    Spec {
        name: "serve_durable",
        why: "1k-entry view, durable log, reader beside the writer: WAL, fsync, checkpoint and publish dominate a small apply",
        mode: SupportMode::WithSupports,
        durable_main: true,
        segment_batches: 0,
        checkpoint_every: 256,
        reads_per_round: 2048,
        program: Program::Layered { facts_per_pred: 64 },
    },
];

impl Spec {
    pub fn named(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's update stream for `seed`. Layered programs place
    /// their intervals by the seed too; the transitive-closure graph is
    /// fixed (see [`dag_edges`]) and only its update order follows it.
    pub fn stream(&self, seed: u64) -> Box<dyn UpdateStream> {
        match self.program {
            Program::Layered { facts_per_pred } => Box::new(LayeredStream::new(
                LayeredSpec {
                    layers: 3,
                    preds_per_layer: 4,
                    facts_per_pred,
                    body_atoms: 1,
                    seed,
                    ..LayeredSpec::default()
                },
                seed,
            )),
            Program::Tc => Box::new(TcStream::new(
                TC_NODES,
                dag_edges(TC_NODES, TC_EDGES, TC_SPAN, TC_GRAPH_SEED),
                seed,
            )),
        }
    }

    /// The same workload at a fraction of its size, for the smoke tier:
    /// an eighth of the layered program's facts, shorter segments and a
    /// shorter checkpoint cadence.
    pub fn smoke(&self) -> Spec {
        Spec {
            program: match self.program {
                Program::Layered { facts_per_pred } => Program::Layered {
                    facts_per_pred: facts_per_pred / 8,
                },
                Program::Tc => Program::Tc,
            },
            segment_batches: self.segment_batches / 8,
            checkpoint_every: (self.checkpoint_every / 8).max(4),
            reads_per_round: (self.reads_per_round / 8).max(4),
            ..*self
        }
    }
}
