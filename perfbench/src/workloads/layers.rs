//! The traced run: per-layer metrics. Three sources, as the README
//! tabulates: the service's own instruments during traced rounds
//! (`recent_traces`, `Applied`, `wal_stats`, the pool's counters), the
//! same batches replayed through the bare `mmv-core` functions on
//! cloned views, and microbenchmarks of single layers on the workload's
//! own data. Bench-side spans wrap every call and are written to
//! `<bench dir>/<workload>.trace.json` when the run ends.

use super::run::{Run, TraceSink, Variant};
use super::{Spec, POOL_WIDTH};
use crate::ground::{ground_facts, ground_mirror};
use crate::harness::{bench_dir, median, sample_for, timed};
use crate::json::Json;
use crate::report::{Metric, Outcome};
use crate::spans::SpanLog;
use mmv_constraints::{satisfiable_with, simplify, NoDomains, SolverConfig};
use mmv_core::batch::UpdateBatch;
use mmv_core::parser::{parse_wal_payload, render_wal_payload, WalPayload};
use mmv_core::tp::ParallelFixpoint;
use mmv_core::{
    apply_batch, dred_delete_batch, fixpoint, insert_batch, stdel_delete_batch, ExtDredStats,
    FixpointConfig, FixpointStats, InsertBatchStats, MaterializedView, Operator, StDelStats,
    SupportMode, WorkerPool,
};
use mmv_service::checkpoint::{load_newest, write_checkpoint};
use mmv_service::wal::Wal;
use mmv_service::{DeleteStats, FsyncPolicy, ObsOptions, Stage, ViewService};
use std::sync::Arc;
use std::time::Duration;

/// Shares of `--seconds`.
const ROUNDS_SHARE: f64 = 0.55;
const REPLAY_SHARE: f64 = 0.25;
const MICRO_SHARE: f64 = 0.20;
/// Retained stage traces: more than any segment applies.
const TRACE_CAPACITY: usize = 2048;
/// Replayed batches whose work counters are reported: a fixed count from
/// the initial database, so the counters repeat exactly.
const COUNTED_REPLAYS: usize = 8;
/// Bare views are compacted after this many replayed batches, as the
/// service is restarted between segments.
const REPLAYS_PER_COMPACTION: usize = 32;

const TRACED: usize = 0;
const DEFAULT_OBS: usize = 1;
const NO_OBS: usize = 2;

/// Rounds for a share of `seconds`, `min_rounds` per variant at least;
/// then the replays and the microbenchmarks.
pub fn run(spec: Spec, seed: u64, seconds: f64, min_rounds: usize) -> Outcome {
    let variants = vec![
        Variant {
            obs: ObsOptions::default().trace_capacity(TRACE_CAPACITY),
            record: true,
        },
        Variant {
            obs: ObsOptions::default(),
            record: false,
        },
        Variant {
            obs: ObsOptions::disabled(),
            record: false,
        },
    ];
    let mut run = Run::new(spec, seed, variants);
    run.rounds_for(ROUNDS_SHARE * seconds, min_rounds);

    let mut m = Vec::new();
    service_metrics(&run, &mut m);
    let replay = Replay::run(spec, seed, REPLAY_SHARE * seconds, &mut run);
    replay.metrics(&mut m);
    micro_metrics(spec, seed, MICRO_SHARE * seconds, &mut run, &mut m);
    let (drift, _) = run.drift();
    m.push(Metric::count("drift_ratio", "ratio", drift));
    let entries = |i: usize| run.rounds[i].view_entries;
    m.push(Metric::count("view_entries_start", "count", entries(0)));
    m.push(Metric::count(
        "view_entries_end",
        "count",
        entries(run.rounds.len() - 1),
    ));

    write_trace(&spec, &run.probe.spans);
    Outcome {
        attempted: run.probe.attempted,
        failed: run.probe.failed,
        metrics: m,
        detail: Json::Null,
    }
}

fn write_trace(spec: &Spec, spans: &SpanLog) {
    let path = bench_dir().join(format!("{}.trace.json", spec.name));
    if let Err(e) = std::fs::write(&path, spans.to_json().render()) {
        eprintln!("could not write {}: {e}", path.display());
    }
    eprintln!(
        "{} spans written to {}; self time by layer:",
        spans.spans().len(),
        path.display()
    );
    for (name, count, total, own) in spans.self_times() {
        eprintln!("  {name:<28} n={count:<7} total {total:>9.4}s  self {own:>9.4}s");
    }
}

/// Metrics read at the service's own instruments during traced rounds.
fn service_metrics(run: &Run, m: &mut Vec<Metric>) {
    let sink: &TraceSink = &run.probe.sink;
    let stage =
        |traces: &mut dyn Iterator<Item = &mmv_service::BatchTrace>, s: Stage, scale: f64| {
            let v: Vec<f64> = traces.map(|t| t.stage(s).as_secs_f64() * scale).collect();
            (median(&v), v.len())
        };
    let main = |s: Stage, scale: f64| stage(&mut sink.main.iter().map(|(t, _, _)| t), s, scale);
    let durable = |s: Stage, scale: f64| stage(&mut sink.durable.iter(), s, scale);
    let mut timing =
        |name, unit, (value, n): (f64, usize)| m.push(Metric::timing(name, unit, value, n));
    timing("service.split_us", "us", main(Stage::Split, 1e6));
    timing("service.lock_wait_us", "us", main(Stage::LockWait, 1e6));
    timing("service.apply_ms", "ms", main(Stage::Apply, 1e3));
    timing("service.publish_us", "us", main(Stage::Publish, 1e6));
    // WAL stages only run on a durable service: on the in-memory
    // workloads they describe the durable segments, not the main window.
    timing(
        "service.wal_render_us",
        "us",
        durable(Stage::WalRender, 1e6),
    );
    timing(
        "service.wal_append_us",
        "us",
        durable(Stage::WalAppend, 1e6),
    );
    timing(
        "service.fsync_wait_ms",
        "ms",
        durable(Stage::FsyncWait, 1e3),
    );
    // The hand-over runs once per cadence; its median is over the
    // batches that made one.
    timing(
        "service.checkpoint_us",
        "us",
        stage(
            &mut sink
                .durable
                .iter()
                .filter(|t| !t.stage(Stage::Checkpoint).is_zero()),
            Stage::Checkpoint,
            1e6,
        ),
    );
    let latency_ms = median(
        &sink
            .main
            .iter()
            .map(|(_, _, secs)| secs * 1e3)
            .collect::<Vec<_>>(),
    );
    let overhead: Vec<f64> = sink
        .main
        .iter()
        .map(|(t, _, secs)| (secs - t.total().as_secs_f64()) * 1e3)
        .collect();
    timing(
        "service.overhead_ms",
        "ms",
        (median(&overhead), overhead.len()),
    );
    m.push(Metric::count(
        "service.apply_share",
        "ratio",
        main(Stage::Apply, 1e3).0 / latency_ms,
    ));

    // Work counters of the first main segment: it starts from the
    // initial database, so they repeat exactly from run to run.
    let first = &sink.main[..sink.first_segment.min(sink.main.len())];
    let per_batch = |f: &dyn Fn(&mmv_service::Applied) -> u64| {
        first.iter().map(|(_, a, _)| f(a)).sum::<u64>() as f64 / first.len() as f64
    };
    m.push(Metric::count(
        "constraints.solver_calls_per_batch",
        "count",
        per_batch(&|a| {
            let deletes = match a.stats.deletes {
                DeleteStats::None => 0,
                DeleteStats::Dred(d) => d.solver_calls,
                DeleteStats::StDel(s) => s.solver_calls,
            };
            // Every derivation the insertion tries is tested for
            // solvability unless it is syntactically false.
            let fx = a.stats.inserts.fixpoint;
            (deletes + fx.derivations_tried - fx.pruned_syntactic) as u64
        }),
    ));
    m.push(Metric::count(
        "core.store.entry_pages_copied_per_batch",
        "count",
        per_batch(&|a| a.publish.entry_pages_copied),
    ));
    m.push(Metric::count(
        "core.store.by_const_keys_copied_per_batch",
        "count",
        per_batch(&|a| a.publish.by_const_keys_copied),
    ));
    m.push(Metric::count(
        "core.store.slot_keys_copied_per_batch",
        "count",
        per_batch(&|a| a.publish.slot_keys_copied),
    ));
    let batches = sink.main.len() as f64;
    m.push(Metric::count(
        "core.pool.tasks_per_batch",
        "count",
        sink.pool_tasks as f64 / batches,
    ));
    m.push(Metric::count(
        "core.pool.steals_per_batch",
        "count",
        sink.pool_steals as f64 / batches,
    ));
    m.push(Metric::count(
        "service.wal.bytes_per_update",
        "bytes",
        sink.wal.bytes_written as f64 / sink.durable_update_atoms as f64,
    ));
    m.push(Metric::count(
        "service.wal.fsyncs_per_batch",
        "count",
        sink.wal.fsyncs as f64 / sink.durable_batches as f64,
    ));
    m.push(Metric::count(
        "service.checkpoint.count",
        "count",
        sink.checkpoints as f64,
    ));
    m.push(Metric::count(
        "service.recover.replayed_records",
        "count",
        median(&sink.replayed_records),
    ));
    m.push(Metric::count(
        "service.log.records",
        "count",
        median(&sink.log_records),
    ));

    // The variants take turns round by round, so each ratio compares
    // rounds that saw the same spells of the host.
    let p50 = |variant| median(&run.profile(variant, |r| &r.batch_ms));
    m.push(Metric::count(
        "tracing_overhead_fraction",
        "ratio",
        p50(TRACED) / p50(DEFAULT_OBS) - 1.0,
    ));
    m.push(Metric::count(
        "obs.overhead_fraction",
        "ratio",
        p50(DEFAULT_OBS) / p50(NO_OBS) - 1.0,
    ));
}

/// The bare `mmv-core` replay of the workload's batches: what the layers
/// inside `apply` cost without the service around them.
struct Replay {
    build_s: Vec<f64>,
    build: FixpointStats,
    entries: usize,
    clone_ns: Vec<f64>,
    apply_ms: Vec<f64>,
    stdel_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    dred_ms: Vec<f64>,
    ground_dred_ms: Vec<f64>,
    /// Summed over the first [`COUNTED_REPLAYS`] batches.
    stdel: StDelStats,
    dred: ExtDredStats,
    insert: InsertBatchStats,
}

impl Replay {
    fn run(spec: Spec, seed: u64, seconds: f64, run: &mut Run) -> Replay {
        let mut stream = spec.stream(seed);
        let db = stream.initial_db();
        let sequential = FixpointConfig::default();
        // Maintenance runs with the pool the service would hand it.
        let pooled = FixpointConfig {
            parallel: Some(ParallelFixpoint {
                pool: Arc::new(WorkerPool::new(POOL_WIDTH)),
                resolver: Arc::new(NoDomains),
            }),
            ..FixpointConfig::default()
        };
        let probe = &mut run.probe;
        probe.spans.set_enabled(true);
        let build = |mode, spans: &mut SpanLog| {
            let ((view, stats), secs) = spans.span("core.tp.fixpoint", |_| {
                fixpoint(&db, &NoDomains, Operator::Tp, mode, &sequential)
                    .expect("the workload's program builds")
            });
            (view, stats, secs)
        };
        let mut out = Replay {
            build_s: Vec::new(),
            build: FixpointStats::default(),
            entries: 0,
            clone_ns: Vec::new(),
            apply_ms: Vec::new(),
            stdel_ms: Vec::new(),
            insert_ms: Vec::new(),
            dred_ms: Vec::new(),
            ground_dred_ms: Vec::new(),
            stdel: StDelStats::default(),
            dred: ExtDredStats::default(),
            insert: InsertBatchStats::default(),
        };
        // The service's own mode first: its build is the one `setup_s`
        // pays. Both modes are replayed on every workload, so the
        // algorithm the service bypasses is priced beside the one it
        // runs.
        let (mut own, stats, secs) = build(spec.mode, &mut probe.spans);
        out.build = stats;
        out.entries = own.len();
        out.build_s.push(secs);
        for _ in 0..4 {
            out.build_s.push(build(spec.mode, &mut probe.spans).2);
        }
        let (mut supported, _, _) = build(SupportMode::WithSupports, &mut probe.spans);
        let (mut plain, _, _) = build(SupportMode::Plain, &mut probe.spans);
        let ground_program = ground_mirror(&db);
        let mut ground = mmv_datalog::evaluate(&ground_program);

        let solver = SolverConfig::default();
        let mut replayed = 0usize;
        let start = std::time::Instant::now();
        while replayed < COUNTED_REPLAYS || start.elapsed().as_secs_f64() < seconds {
            let batch = stream.next_batch();
            let counted = replayed < COUNTED_REPLAYS;
            replayed += 1;
            probe.spans.set_batch(replayed as u64);
            let (ok, _) = probe.spans.span("core.replay", |spans| {
                // A snapshot is alive across every batch, as in the
                // service, so the first touch of a page copies it.
                let (frozen, secs) = spans.span("core.store.clone", |_| supported.clone());
                out.clone_ns.push(secs * 1e9);
                let (s, secs) = spans.span("core.stdel", |_| {
                    stdel_delete_batch(&mut supported, &batch.deletes, &NoDomains, &solver)
                });
                out.stdel_ms.push(secs * 1e3);
                let (i, secs) = spans.span("core.insert", |_| {
                    insert_batch(
                        &db,
                        &mut supported,
                        &batch.inserts,
                        &NoDomains,
                        Operator::Tp,
                        &pooled,
                    )
                });
                out.insert_ms.push(secs * 1e3);
                drop(frozen);

                let frozen = plain.clone();
                let (d, secs) = spans.span("core.dred", |_| {
                    dred_delete_batch(&db, &mut plain, &batch.deletes, &NoDomains, &pooled)
                });
                out.dred_ms.push(secs * 1e3);
                let kept_in_step = insert_batch(
                    &db,
                    &mut plain,
                    &batch.inserts,
                    &NoDomains,
                    Operator::Tp,
                    &pooled,
                )
                .is_ok();
                drop(frozen);

                let frozen = own.clone();
                let (whole, secs) = spans.span("core.batch.apply", |_| {
                    apply_batch(&db, &mut own, &batch, &NoDomains, Operator::Tp, &pooled)
                });
                out.apply_ms.push(secs * 1e3);
                drop(frozen);

                let (dels, ins) = (ground_facts(&batch.deletes), ground_facts(&batch.inserts));
                let ((next, _), secs) = spans.span("datalog.ground_dred", |_| {
                    mmv_datalog::apply_update(&ground_program, &ground, &dels, &ins)
                });
                out.ground_dred_ms.push(secs * 1e3);
                ground = next;

                if counted {
                    if let (Ok(s), Ok(i), Ok(d)) = (&s, &i, &d) {
                        out.stdel.absorb(s);
                        out.insert.absorb(i);
                        out.dred.absorb(d);
                    }
                }
                s.is_ok() && i.is_ok() && d.is_ok() && kept_in_step && whole.is_ok()
            });
            probe.check(ok, "bare replay of a batch");
            if replayed % REPLAYS_PER_COMPACTION == 0 {
                (supported, plain, own) = (supported.compact(), plain.compact(), own.compact());
            }
        }
        // The three replays and the ground mirror saw the same updates.
        let instances = |v: &MaterializedView| v.instances(&NoDomains, &solver).ok();
        let ground_set = ground.facts().map(|f| (f.pred, f.args)).collect();
        let agree = instances(&supported) == instances(&plain)
            && instances(&supported) == instances(&own)
            && instances(&supported) == Some(ground_set);
        probe.check(agree, "replayed views and the ground mirror agree");
        out
    }

    fn metrics(&self, m: &mut Vec<Metric>) {
        let mut timing =
            |name, unit, v: &Vec<f64>| m.push(Metric::timing(name, unit, median(v), v.len()));
        timing("core.tp.build_s", "s", &self.build_s);
        timing("core.batch.apply_ms", "ms", &self.apply_ms);
        timing("core.stdel.batch_ms", "ms", &self.stdel_ms);
        timing("core.dred.batch_ms", "ms", &self.dred_ms);
        timing("core.insert.batch_ms", "ms", &self.insert_ms);
        timing("core.store.clone_ns", "ns", &self.clone_ns);
        timing("datalog.ground_dred_ms", "ms", &self.ground_dred_ms);
        let mut count = |name, value: f64| m.push(Metric::count(name, "count", value));
        count(
            "core.tp.derivations_tried",
            self.build.derivations_tried as f64,
        );
        count(
            "core.tp.candidates_scanned",
            self.build.candidates_scanned as f64,
        );
        count("core.tp.index_probes", self.build.index_probes as f64);
        let n = COUNTED_REPLAYS as f64;
        count(
            "core.stdel.replacements_per_batch",
            (self.stdel.direct_replacements + self.stdel.propagated_replacements) as f64 / n,
        );
        count(
            "core.stdel.removed_per_batch",
            self.stdel.removed as f64 / n,
        );
        count(
            "core.dred.rederived_per_batch",
            self.dred.rederived as f64 / n,
        );
        count(
            "core.dred.candidates_scanned_per_batch",
            self.dred.candidates_scanned as f64 / n,
        );
        count(
            "core.insert.propagated_per_batch",
            self.insert.propagated as f64 / n,
        );
        count(
            "core.insert.derivations_tried_per_batch",
            self.insert.fixpoint.derivations_tried as f64 / n,
        );
        m.push(Metric::count(
            "core.tp.useful_ratio",
            "ratio",
            self.entries as f64 / self.build.derivations_tried as f64,
        ));
        // Wasted work: entries rederived per entry the over-deletion
        // weakened.
        m.push(Metric::count(
            "core.dred.overdelete_ratio",
            "ratio",
            self.dred.rederived as f64 / self.dred.weakened.max(1) as f64,
        ));
    }
}

/// Files the median of `secs` (each the duration of `per_call` calls) as
/// a per-call timing in the unit `scale` converts seconds to.
fn timing(
    m: &mut Vec<Metric>,
    name: &'static str,
    unit: &'static str,
    scale: f64,
    per_call: usize,
    secs: Vec<f64>,
) {
    let v: Vec<f64> = secs.iter().map(|s| s * scale / per_call as f64).collect();
    m.push(Metric::timing(name, unit, median(&v), v.len() * per_call));
}

/// Microbenchmarks of single layers on the workload's own data, each
/// for an equal slice of `seconds`.
fn micro_metrics(spec: Spec, seed: u64, seconds: f64, run: &mut Run, m: &mut Vec<Metric>) {
    const MICROS: f64 = 13.0;
    let slice = seconds / MICROS;
    let mut stream = spec.stream(seed);
    let db = stream.initial_db();
    let reads = stream.reads(512);
    let batches: Vec<UpdateBatch> = (0..64).map(|_| stream.next_batch()).collect();
    let solver = SolverConfig::default();
    let spans = &mut run.probe.spans;
    let svc = ViewService::builder()
        .mode(spec.mode)
        .pool_threads(POOL_WIDTH)
        .build(db.clone())
        .expect("the workload's program builds");
    for b in batches.iter().take(8) {
        svc.apply(b.clone()).expect("apply");
    }
    let snapshot = svc.snapshot();
    let view = snapshot.merged_view();

    // Constraints sampled from the view, evenly across its entries.
    let live: Vec<_> = view.live_entries().collect();
    let sample: Vec<_> = live
        .iter()
        .step_by((live.len() / 512).max(1))
        .map(|(_, e)| e.atom.constraint.clone())
        .collect();
    let ((), _) = spans.span("micro.constraints", |_| {
        timing(
            m,
            "constraints.sat_ns_per_call",
            "ns",
            1e9,
            sample.len(),
            sample_for(slice, 3, || {
                for c in &sample {
                    std::hint::black_box(satisfiable_with(
                        std::hint::black_box(c),
                        &NoDomains,
                        &solver,
                    ));
                }
            }),
        );
        timing(
            m,
            "constraints.simplify_ns_per_call",
            "ns",
            1e9,
            sample.len(),
            sample_for(slice, 3, || {
                for c in &sample {
                    std::hint::black_box(simplify(std::hint::black_box(c)));
                }
            }),
        );
    });

    let ((), _) = spans.span("micro.reads", |_| {
        let mut next = reads.iter().cycle();
        timing(
            m,
            "core.view.ask_us",
            "us",
            1e6,
            1,
            sample_for(slice, 3, || {
                let r = next.next().expect("cycle");
                let pattern: Vec<_> = r.args.iter().cloned().map(Some).collect();
                std::hint::black_box(view.query(&r.pred, &pattern, &NoDomains, &solver)).ok();
            }),
        );
        let mut next = reads.iter().cycle();
        timing(
            m,
            "service.snapshot.ask_us",
            "us",
            1e6,
            1,
            sample_for(slice, 3, || {
                let r = next.next().expect("cycle");
                std::hint::black_box(snapshot.ask(&r.pred, &r.args, &NoDomains, &solver)).ok();
            }),
        );
        timing(
            m,
            "service.snapshot.acquire_ns",
            "ns",
            1e9,
            1000,
            sample_for(slice, 3, || {
                for _ in 0..1000 {
                    std::hint::black_box(svc.snapshot());
                }
            }),
        );
    });

    let ((), _) = spans.span("micro.store", |_| {
        // The first mutation after a snapshot: replacing one entry
        // copies the slab page it lives on.
        let mut scratch = view.clone();
        let ids: Vec<_> = live.iter().map(|(id, _)| *id).collect();
        let mut next = ids.iter().cycle();
        let mut touches = Vec::new();
        let begun = std::time::Instant::now();
        while touches.len() < 3 || begun.elapsed().as_secs_f64() < slice {
            let id = *next.next().expect("cycle");
            let constraint = scratch.entry(id).atom.constraint.clone();
            let frozen = scratch.clone();
            let ((), secs) = timed(|| scratch.replace_constraint(id, constraint));
            touches.push(secs);
            drop(frozen);
        }
        timing(m, "core.store.first_touch_us", "us", 1e6, 1, touches);
    });

    let ((), _) = spans.span("micro.parser", |_| {
        let payloads: Vec<WalPayload> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| WalPayload::Batch {
                epoch: i as u64 + 1,
                ticket_base: i as u64,
                batch: b.clone(),
            })
            .collect();
        let texts: Vec<String> = payloads.iter().map(render_wal_payload).collect();
        timing(
            m,
            "core.parser.wal_render_us",
            "us",
            1e6,
            payloads.len(),
            sample_for(slice, 3, || {
                for p in &payloads {
                    std::hint::black_box(render_wal_payload(std::hint::black_box(p)));
                }
            }),
        );
        timing(
            m,
            "core.parser.wal_parse_us",
            "us",
            1e6,
            texts.len(),
            sample_for(slice, 3, || {
                for t in &texts {
                    std::hint::black_box(parse_wal_payload(std::hint::black_box(t))).ok();
                }
            }),
        );

        // A bare WAL under the service's default policy: append, then
        // wait for the group commit that makes the frame durable.
        let dir = bench_dir().join(format!("tmp-{}-{}-wal", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Wal::open(&dir, FsyncPolicy::GroupCommit(Duration::ZERO), 8 << 20, 1)
            .expect("open a bare WAL");
        let (mut appends, mut fsyncs) = (Vec::new(), Vec::new());
        let mut next = texts.iter().cycle();
        let begun = std::time::Instant::now();
        let mut epoch = 0;
        while appends.len() < 3 || begun.elapsed().as_secs_f64() < 2.0 * slice {
            epoch += 1;
            let text = next.next().expect("cycle");
            let (lsn, secs) = timed(|| wal.append(epoch, text).expect("append to a bare WAL"));
            appends.push(secs);
            let ((), secs) = timed(|| wal.wait_durable(lsn).expect("group commit"));
            fsyncs.push(secs);
        }
        drop(wal);
        timing(m, "service.wal.append_us", "us", 1e6, 1, appends);
        timing(m, "service.wal.fsync_ms", "ms", 1e3, 1, fsyncs);

        let mut bytes = 0;
        let writes = sample_for(slice, 3, || {
            let path =
                write_checkpoint(&dir, &snapshot, 0, Operator::Tp).expect("write a checkpoint");
            bytes = std::fs::metadata(path).map_or(0, |meta| meta.len());
        });
        timing(m, "service.checkpoint.write_ms", "ms", 1e3, 1, writes);
        timing(
            m,
            "service.checkpoint.load_ms",
            "ms",
            1e3,
            1,
            sample_for(slice, 3, || {
                std::hint::black_box(load_newest(&dir)).ok();
            }),
        );
        m.push(Metric::count(
            "service.checkpoint.bytes",
            "bytes",
            bytes as f64,
        ));
        let _ = std::fs::remove_dir_all(&dir);
    });

    let ((), _) = spans.span("micro.obs", |_| {
        timing(
            m,
            "obs.render_prometheus_us",
            "us",
            1e6,
            1,
            sample_for(slice, 3, || {
                std::hint::black_box(svc.metrics().render_prometheus());
            }),
        );
    });
}

/// The deterministic work counters `bench_compare` holds to exact
/// equality between two results of one commit.
pub const EXACT_COUNTERS: [&str; 15] = [
    "constraints.solver_calls_per_batch",
    "core.tp.derivations_tried",
    "core.tp.candidates_scanned",
    "core.tp.index_probes",
    "core.stdel.replacements_per_batch",
    "core.stdel.removed_per_batch",
    "core.dred.rederived_per_batch",
    "core.dred.candidates_scanned_per_batch",
    "core.insert.propagated_per_batch",
    "core.insert.derivations_tried_per_batch",
    "core.store.entry_pages_copied_per_batch",
    "core.store.by_const_keys_copied_per_batch",
    "core.store.slot_keys_copied_per_batch",
    "service.recover.replayed_records",
    "service.checkpoint.bytes",
];
