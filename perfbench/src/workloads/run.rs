//! The rounds every workload is made of. One round is: a timed service
//! build, the in-memory write segment (writer alone), a quiescent read
//! slice, and the durable write segment (writer + reader, drop, timed
//! recovery, recovered view compared with the view served before the
//! drop). Rounds repeat until the run's seconds are spent. Every round
//! repeats the same operations, so a metric is estimated over rounds as
//! a repeated measurement on a shared host: by the mean of its better
//! half ([`quiet`]), per batch position and per read for the latency
//! percentiles ([`quiet_profile`]). The phases interleave in time, so a
//! disturbed spell of the host spoils some rounds of every metric, not
//! one metric wholly.
//!
//! The untraced and the traced run drive the same rounds. The traced run
//! hands in several observability [`Variant`]s, which take turns round
//! by round, and a [`TraceSink`] that the recording variant fills.

use super::{Spec, POOL_WIDTH};
use crate::gen::{Read, UpdateStream};
use crate::ground::ground_mirror;
use crate::harness::{bench_dir, median, quiet, quiet_profile, timed, Better};
use crate::spans::SpanLog;
use mmv_constraints::{NoDomains, SolverConfig};
use mmv_core::view::GroundFact;
use mmv_core::{recompute_instances, ConstrainedDatabase, FixpointConfig};
use mmv_service::{
    Applied, BatchTrace, Durability, ObsOptions, ViewService, ViewServiceBuilder, WalStats,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A run makes at least this many rounds per variant, however few
/// seconds it is given: a median over fewer says little.
pub const MIN_ROUNDS: usize = 3;
/// Throwaway builds timed per round when set-up is not a restart.
const BUILDS_PER_ROUND: usize = 3;
/// Distinct point reads the read loops cycle through.
const READ_POOL: usize = 4096;

/// How a round's services observe themselves.
#[derive(Debug, Clone)]
pub struct Variant {
    pub obs: ObsOptions,
    /// Record bench-side spans and fill the [`TraceSink`].
    pub record: bool,
}

/// What the recording variant collects at the service's own instruments.
#[derive(Debug, Default)]
pub struct TraceSink {
    /// Main write segments: each batch's stage trace, its reply, and the
    /// `apply()` latency measured around it in seconds.
    pub main: Vec<(BatchTrace, Applied, f64)>,
    /// Batches in the first main segment: it starts from the initial
    /// database, so its work counters repeat exactly.
    pub first_segment: usize,
    /// Stage traces of durable segments.
    pub durable: Vec<BatchTrace>,
    pub pool_tasks: u64,
    pub pool_steals: u64,
    /// Length of the service's in-memory log at the end of each main
    /// segment.
    pub log_records: Vec<f64>,
    /// Summed over durable segments.
    pub wal: WalStats,
    pub durable_batches: u64,
    pub durable_update_atoms: u64,
    pub checkpoints: u64,
    pub replayed_records: Vec<f64>,
}

/// One round's own statistics.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Index of the [`Variant`] the round ran under.
    pub variant: usize,
    pub setup_s: f64,
    /// Latencies of the main write segment's batches, in window order.
    pub batch_ms: Vec<f64>,
    /// Update atoms per second of writer wall over the main segment.
    pub updates_per_s: f64,
    pub read_us: Vec<f64>,
    pub read_under_write_us: Vec<f64>,
    pub recover_s: f64,
    /// View size after the main segment's last batch.
    pub view_entries: f64,
}

/// A service's durable home: it is rebuilt by recovery, never by a fresh
/// build, so it keeps its directory and the database its log started on.
struct DurableLane {
    stream: Box<dyn UpdateStream>,
    svc: Option<ViewService>,
    dir: PathBuf,
    base: ConstrainedDatabase,
}

/// The run's tallies and recorders: everything a phase writes to while
/// it borrows a lane.
pub struct Probe {
    name: &'static str,
    pub spans: SpanLog,
    pub sink: TraceSink,
    recording: bool,
    batch_id: u64,
    pub attempted: u64,
    pub failed: u64,
}

pub struct Run {
    pub spec: Spec,
    variants: Vec<Variant>,
    pub probe: Probe,
    tmp: PathBuf,
    next_dir: usize,
    reads: Vec<Read>,
    solver: SolverConfig,
    /// The in-memory main lane: its stream and the service of the latest
    /// round. Absent when the main window itself is durable.
    memory: Option<(Box<dyn UpdateStream>, Option<ViewService>)>,
    durable: DurableLane,
    pub rounds: Vec<Round>,
}

impl Probe {
    /// Counts one checked outcome.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED [{}]: {what}", self.name);
        }
    }

    /// One closed-loop `apply`: its reply, its latency in seconds and
    /// the batch's update atoms.
    fn apply_one(
        &mut self,
        svc: &ViewService,
        stream: &mut dyn UpdateStream,
    ) -> (Option<Applied>, f64, u64) {
        let batch = stream.next_batch();
        let atoms = batch.len() as u64;
        self.batch_id += 1;
        self.spans.set_batch(self.batch_id);
        let (reply, secs) = self.spans.span("service.apply", |_| svc.apply(batch));
        if let Err(e) = &reply {
            eprintln!("apply failed: {e}");
        }
        self.check(reply.is_ok(), "apply");
        (reply.ok(), secs, atoms)
    }

    /// Files a finished main segment with the sink.
    fn record_main(&mut self, svc: &ViewService, replies: Vec<(Option<Applied>, f64)>) {
        if !self.recording {
            return;
        }
        if self.sink.main.is_empty() {
            self.sink.first_segment = replies.len();
        }
        // The trace ring holds the segment's batches, oldest first.
        let traces = svc.recent_traces();
        self.check(traces.len() == replies.len(), "one stage trace per batch");
        self.sink.main.extend(
            traces
                .into_iter()
                .zip(replies)
                .filter_map(|(t, (reply, secs))| Some((t, reply?, secs))),
        );
        self.sink.log_records.push(svc.log().len() as f64);
        if let Some(pool) = svc.pool() {
            self.sink.pool_tasks += pool.metrics().tasks_total.get();
            self.sink.pool_steals += pool.metrics().steals_total.get();
        }
    }
}

impl Run {
    pub fn new(spec: Spec, seed: u64, variants: Vec<Variant>) -> Run {
        assert!(!variants.is_empty());
        let tmp = bench_dir().join(format!("tmp-{}-{}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).expect("create the run's scratch directory");
        let durable_stream = spec.stream(seed);
        let memory = (!spec.durable_main).then(|| (spec.stream(seed), None));
        let reads = durable_stream.reads(READ_POOL);
        let base = durable_stream.initial_db();
        let mut run = Run {
            spec,
            variants,
            probe: Probe {
                name: spec.name,
                spans: SpanLog::new(false),
                sink: TraceSink::default(),
                recording: false,
                batch_id: 0,
                attempted: 0,
                failed: 0,
            },
            tmp,
            next_dir: 0,
            reads,
            solver: SolverConfig::default(),
            memory,
            durable: DurableLane {
                stream: durable_stream,
                svc: None,
                dir: PathBuf::new(),
                base,
            },
            rounds: Vec::new(),
        };
        run.durable.dir = run.fresh_dir();
        let built = run
            .builder(0, Some(&run.durable.dir))
            .build(run.durable.base.clone());
        run.durable.svc = Some(built.expect("the workload's program builds"));
        run
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.next_dir += 1;
        self.tmp.join(format!("durable-{}", self.next_dir))
    }

    fn builder(&self, variant: usize, dir: Option<&Path>) -> ViewServiceBuilder {
        let b = ViewService::builder()
            .mode(self.spec.mode)
            .pool_threads(POOL_WIDTH)
            .observability(self.variants[variant].obs.clone());
        match dir {
            Some(dir) => {
                b.durability(Durability::durable(dir).checkpoint_every(self.spec.checkpoint_every))
            }
            None => b,
        }
    }

    /// Rounds until `seconds` have passed, `min_rounds` per variant at
    /// least; then the end-of-workload check of every lane.
    pub fn rounds_for(&mut self, seconds: f64, min_rounds: usize) {
        let start = Instant::now();
        while self.rounds.len() < min_rounds * self.variants.len()
            || start.elapsed().as_secs_f64() < seconds
        {
            self.round();
        }
        if let Some((stream, svc)) = self.memory.take() {
            let svc = svc.expect("a round ran");
            self.check_against_recomputation(&svc, &stream.current_db());
        }
        let svc = self
            .durable
            .svc
            .take()
            .expect("the durable lane keeps its service");
        let db = self.durable.stream.current_db();
        self.check_against_recomputation(&svc, &db);
    }

    fn round(&mut self) {
        let variant = self.rounds.len() % self.variants.len();
        let mut round = Round {
            variant,
            ..Round::default()
        };
        self.probe.recording = self.variants[variant].record;
        self.probe.spans.set_enabled(self.probe.recording);
        if let Some((mut stream, _)) = self.memory.take() {
            // The restart is the set-up sample: the same program with
            // the stream's current facts, as large as the initial one.
            let (builder, db) = (self.builder(variant, None), stream.current_db());
            let (svc, secs) = self
                .probe
                .spans
                .span("service.build", |_| builder.build(db));
            let svc = svc.expect("the workload's program builds");
            round.setup_s = secs;
            self.memory_segment(&svc, stream.as_mut(), &mut round);
            self.read_slice(&svc, &mut round);
            self.memory = Some((stream, Some(svc)));
            self.durable_segment(&mut round, false);
        } else {
            // The durable lane lives on through recoveries, so set-up is
            // timed on a service of its own, in a directory of its own.
            let mut builds = Vec::with_capacity(BUILDS_PER_ROUND);
            for _ in 0..BUILDS_PER_ROUND {
                let (dir, db) = (self.fresh_dir(), self.durable.base.clone());
                let builder = self.builder(variant, Some(&dir));
                let (svc, secs) = self
                    .probe
                    .spans
                    .span("service.build", |_| builder.build(db));
                drop(svc.expect("the workload's program builds"));
                builds.push(secs);
            }
            round.setup_s = median(&builds);
            self.durable_segment(&mut round, true);
            let svc = self
                .durable
                .svc
                .take()
                .expect("the durable lane keeps its service");
            self.read_slice(&svc, &mut round);
            self.durable.svc = Some(svc);
        }
        self.rounds.push(round);
    }

    /// `segment_batches` closed-loop applies, the writer alone; then the
    /// stream's settling batch, if it has one, outside the measurement.
    fn memory_segment(
        &mut self,
        svc: &ViewService,
        stream: &mut dyn UpdateStream,
        round: &mut Round,
    ) {
        let (mut atoms, t0) = (0, Instant::now());
        let mut replies = Vec::with_capacity(self.spec.segment_batches);
        for _ in 0..self.spec.segment_batches {
            let (reply, secs, n) = self.probe.apply_one(svc, stream);
            round.batch_ms.push(secs * 1e3);
            replies.push((reply, secs));
            atoms += n;
        }
        round.updates_per_s = atoms as f64 / t0.elapsed().as_secs_f64();
        self.probe.record_main(svc, replies);
        if let Some(batch) = stream.settle() {
            let settled = svc.apply(batch).is_ok();
            self.probe.check(settled, "settling batch");
        }
        round.view_entries = svc.snapshot().len() as f64;
    }

    /// `reads_per_round` point `ask`s on the top predicate, half hits
    /// and half misses, nothing writing.
    fn read_slice(&mut self, svc: &ViewService, round: &mut Round) {
        let mut left = self.spec.reads_per_round;
        let (us, failures) = read_loop(svc, &self.reads, &self.solver, || {
            left -= 1;
            left == 0
        });
        self.probe.attempted += us.len() as u64;
        self.probe.failed += failures;
        round.read_us = us;
    }

    /// The durable segment: batches applied with a reader looping
    /// `snapshot().ask` beside the writer, up to half a checkpoint
    /// cadence past a checkpoint; then the service is dropped,
    /// `recover()` is timed and the recovered view is compared with the
    /// view served before the drop. `main` marks the segment as the
    /// workload's main write window.
    fn durable_segment(&mut self, round: &mut Round, main: bool) {
        let svc = self
            .durable
            .svc
            .take()
            .expect("the durable lane keeps its service");
        let cadence = self.spec.checkpoint_every;
        // The first epoch at least one cadence ahead that lies half a
        // cadence past a checkpoint.
        let mut stop_at = svc.epoch() + cadence;
        while stop_at % cadence != cadence / 2 {
            stop_at += 1;
        }
        let stop = AtomicBool::new(false);
        let (mut atoms, t0) = (0, Instant::now());
        let mut replies = Vec::new();
        let (read_us, read_failures) = std::thread::scope(|scope| {
            // order: Acquire pairs with the Release store below; the flag only ends the loop
            let reader = scope.spawn(|| {
                read_loop(&svc, &self.reads, &self.solver, || {
                    stop.load(Ordering::Acquire)
                })
            });
            while svc.epoch() < stop_at {
                let (reply, secs, n) = self.probe.apply_one(&svc, self.durable.stream.as_mut());
                replies.push((reply, secs));
                atoms += n;
            }
            stop.store(true, Ordering::Release);
            reader.join().expect("reader thread")
        });
        self.probe.attempted += read_us.len() as u64;
        self.probe.failed += read_failures;
        round.read_under_write_us = read_us;
        if main {
            round.batch_ms = replies.iter().map(|(_, secs)| secs * 1e3).collect();
            round.updates_per_s = atoms as f64 / t0.elapsed().as_secs_f64();
            round.view_entries = svc.snapshot().len() as f64;
        }
        if self.probe.recording {
            let sink = &mut self.probe.sink;
            sink.durable.extend(svc.recent_traces());
            sink.durable_batches += replies.len() as u64;
            sink.durable_update_atoms += atoms;
            if let Some(w) = svc.wal_stats() {
                sink.wal.records += w.records;
                sink.wal.bytes_written += w.bytes_written;
                sink.wal.fsync_batches += w.fsync_batches;
                sink.wal.fsyncs += w.fsyncs;
            }
            if main {
                self.probe.record_main(&svc, replies);
            }
        }

        let before = svc.snapshot().merged_view();
        drop(svc);
        // The recovered service serves the next round.
        let next_variant = (round.variant + 1) % self.variants.len();
        let (builder, base) = (
            self.builder(next_variant, Some(&self.durable.dir)),
            self.durable.base.clone(),
        );
        let (recovered, secs) = self
            .probe
            .spans
            .span("service.recover", |_| builder.recover(base));
        let (recovered, report) = recovered.expect("recovery of a cleanly dropped service");
        round.recover_s = secs;
        let same = before.syntactically_equal(&recovered.snapshot().merged_view());
        self.probe.check(
            same,
            "recovered view differs from the view served before the drop",
        );
        self.probe.check(
            report.checkpoint_epoch.is_some() && report.replayed_records == cadence / 2,
            "recovery did not load a checkpoint and replay half a cadence",
        );
        if self.probe.recording {
            self.probe
                .sink
                .replayed_records
                .push(report.replayed_records as f64);
            // Counted at recovery: the dropped service's checkpointer
            // has finished by then.
            self.probe.sink.checkpoints += u64::from(report.checkpoint_epoch.is_some());
        }
        self.durable.svc = Some(recovered);
    }

    /// The end-of-workload check: the served instances equal a
    /// from-scratch recomputation on the stream's current database, by
    /// the constrained engine and by ground evaluation of its mirror.
    fn check_against_recomputation(&mut self, svc: &ViewService, db: &ConstrainedDatabase) {
        let served = svc.snapshot().instances(&NoDomains, &self.solver);
        let recomputed = recompute_instances(db, &NoDomains, &FixpointConfig::default());
        let ground: BTreeSet<GroundFact> = mmv_datalog::evaluate(&ground_mirror(db))
            .facts()
            .map(|f| (f.pred, f.args))
            .collect();
        let ok = match (&served, &recomputed) {
            (Ok(s), Ok(r)) => s == r && *s == ground,
            _ => false,
        };
        self.probe
            .check(ok, "served instances differ from the recomputed view");
    }

    fn of_variant(&self, variant: usize) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(move |r| r.variant == variant)
    }

    /// The [`quiet`] estimate of `stat` over the rounds of `variant`.
    pub fn over_rounds(&self, variant: usize, better: Better, stat: impl Fn(&Round) -> f64) -> f64 {
        quiet(
            &self.of_variant(variant).map(stat).collect::<Vec<_>>(),
            better,
        )
    }

    /// The [`quiet_profile`] of a per-round sample list over the rounds
    /// of `variant`: every round repeats the same operations in the same
    /// order (batch positions of the segment, reads of the slice).
    pub fn profile(&self, variant: usize, list: impl Fn(&Round) -> &Vec<f64>) -> Vec<f64> {
        let lists: Vec<&[f64]> = self
            .of_variant(variant)
            .map(|r| list(r).as_slice())
            .collect();
        quiet_profile(&lists)
    }

    /// Samples behind a per-round sample list, over the rounds of
    /// `variant`.
    pub fn samples(&self, variant: usize, list: impl Fn(&Round) -> &Vec<f64>) -> usize {
        self.of_variant(variant).map(|r| list(r).len()).sum()
    }

    /// Ratio of the later half's to the earlier half's median batch
    /// latency, and the same for view size: 1.0 on a stationary run.
    pub fn drift(&self) -> (f64, f64) {
        let ratio = |stat: &dyn Fn(&Round) -> f64| {
            let v: Vec<f64> = self.rounds.iter().map(stat).collect();
            if v.len() < 2 {
                return 1.0;
            }
            let (a, b) = v.split_at(v.len() / 2);
            median(b) / median(a)
        };
        (ratio(&|r| median(&r.batch_ms)), ratio(&|r| r.view_entries))
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        // Services first: they hold the directories open.
        self.memory = None;
        self.durable.svc = None;
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// Loops over `reads` until `done()`, at least one read: each
/// `snapshot().ask` is timed in microseconds and checked against the
/// answer it must give.
fn read_loop(
    svc: &ViewService,
    reads: &[Read],
    solver: &SolverConfig,
    mut done: impl FnMut() -> bool,
) -> (Vec<f64>, u64) {
    let mut us = Vec::new();
    let mut failures = 0;
    for read in reads.iter().cycle() {
        let (got, secs) = timed(|| {
            svc.snapshot()
                .ask(&read.pred, &read.args, &NoDomains, solver)
        });
        us.push(secs * 1e6);
        if got.ok() != Some(read.expect) {
            failures += 1;
        }
        if done() {
            break;
        }
    }
    (us, failures)
}
