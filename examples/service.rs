//! The concurrent view service: batched transactions, epoch-tagged
//! snapshots, and a replayable update log.
//!
//! A writer thread applies batched update transactions to the paper's
//! law-enforcement mediator while reader threads keep answering
//! "who is a suspect?" off consistent snapshots — no reader ever blocks
//! on maintenance or observes a half-applied batch.
//!
//! Run: `cargo run --example service [-- <scrape-file>]` — with a path,
//! the service's final Prometheus scrape is written there (CI feeds it
//! to `promcheck`).

use mmv::constraints::{NoDomains, SolverConfig, Value};
use mmv::core::batch::UpdateBatch;
use mmv::core::parser::{parse_atom, parse_program};
use mmv::core::tp::Operator;
use mmv::core::view::SupportMode;
use mmv::service::{ServiceWorker, ViewService};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    // The paper's Example 3 mediator, slightly enlarged: sightings feed
    // "seen with likely narcotics dealer carrying cash", which feeds
    // suspicion.
    let program = "
        seenwith(X, Y) <- X = don & Y = ed.
        seenwith(X, Y) <- X = don & Y = john.
        seenwith(X, Y) <- X = ann & Y = ed.
        swlndc(X, Y) <- || seenwith(X, Y).
        suspect(Y) <- || swlndc(X, Y).
    ";
    let parsed = parse_program(program).expect("program parses");
    let service = Arc::new(
        ViewService::builder()
            .build(parsed.db)
            .expect("initial view builds"),
    );
    let cfg = SolverConfig::default();
    println!(
        "epoch {}: {} view entries",
        service.epoch(),
        service.snapshot().len()
    );

    // Readers: poll the current snapshot until told to stop, checking
    // that epochs only ever move forward.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let service = service.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let cfg = SolverConfig::default();
                let mut last_epoch = 0;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    assert!(snap.epoch() >= last_epoch, "epochs must be monotone");
                    last_epoch = snap.epoch();
                    let _ = snap
                        .ask("suspect", &[Value::str("ed")], &NoDomains, &cfg)
                        .expect("snapshot query");
                    reads += 1;
                }
                (r, reads, last_epoch)
            })
        })
        .collect();

    // Writer: a worker thread applying batched transactions. The first
    // batch retracts don's sightings and books a new one; the second
    // clears ed entirely.
    let (tx, worker) = ServiceWorker::spawn(service.clone());
    let batch1 = UpdateBatch::deleting(vec![
        parse_atom("seenwith(X, Y) <- X = don & Y = ed").expect("atom"),
        parse_atom("seenwith(X, Y) <- X = don & Y = john").expect("atom"),
    ])
    .insert(parse_atom("seenwith(X, Y) <- X = don & Y = jane").expect("atom"));
    let batch2 = UpdateBatch::deleting(vec![parse_atom("seenwith(X, Y) <- Y = ed").expect("atom")]);
    tx.submit(batch1).expect("submit");
    tx.submit(batch2).expect("submit");
    drop(tx);
    let applied = worker.join().expect("worker drains");
    println!("worker applied {applied} batches");

    // Let the readers observe the final epoch before stopping them.
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        let (r, reads, epoch) = reader.join().expect("reader");
        println!("reader {r}: {reads} snapshot reads, final epoch {epoch}");
    }

    // The final snapshot: ed is no longer a suspect, jane is.
    let snap = service.snapshot();
    println!("\nfinal view (epoch {}):\n{snap}", snap.epoch());
    assert!(!snap
        .ask("suspect", &[Value::str("ed")], &NoDomains, &cfg)
        .unwrap());
    assert!(snap
        .ask("suspect", &[Value::str("jane")], &NoDomains, &cfg)
        .unwrap());

    // Recovery: replaying the log onto a fresh view reproduces the
    // served state exactly.
    let replayed = service
        .log()
        .replay(
            service.db(),
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            service.config(),
        )
        .expect("replay");
    assert!(replayed.syntactically_equal(&snap.merged_view()));
    println!("log replay reproduces the served view ✓");

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, service.metrics().render_prometheus()).expect("write the scrape");
        println!("metrics scrape written to {path}");
    }
}
