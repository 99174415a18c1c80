//! Property tests for the WAL codec: random `WalPayload`s (batches in
//! both shapes, recovery and checkpoint markers) must round-trip
//! bit-exactly through the textual frame format and the segmented
//! on-disk log — and the two failure shapes must behave per the
//! contract: a *truncated tail* (the crash-interrupted final write) is
//! detected and silently dropped, while a *corrupted non-final
//! segment* (damaged history) is an explicit [`StorageError`].

#![allow(
    clippy::disallowed_methods,
    reason = "tests stage, corrupt and clean up WAL directories behind the Vfs on purpose"
)]

use mmv_constraints::{CmpOp, Constraint, Term, Var};
use mmv_core::batch::UpdateBatch;
use mmv_core::parser::{parse_wal_payload, render_wal_payload, WalPayload};
use mmv_core::ConstrainedAtom;
use mmv_service::wal::{scan_dir, FsyncPolicy, StorageError, Wal};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn x() -> Term {
    Term::var(Var(0))
}

/// A fresh scratch directory per proptest case.
fn case_dir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mmv-wal-prop-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, Clone)]
enum AtomShape {
    Point { pred: usize, v: i64 },
    Interval { pred: usize, lo: i64, w: i64 },
    TwoVar { pred: usize, v: i64 },
}

fn atom(shape: &AtomShape) -> ConstrainedAtom {
    match *shape {
        AtomShape::Point { pred, v } => ConstrainedAtom::new(
            &format!("p{pred}"),
            vec![x()],
            Constraint::eq(x(), Term::int(v)),
        ),
        AtomShape::Interval { pred, lo, w } => ConstrainedAtom::new(
            &format!("p{pred}"),
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(lo + w),
            )),
        ),
        // Two distinct variables with a join constraint — exercises
        // the exact-variable parsing (`X0`, `X1` must keep identity).
        AtomShape::TwoVar { pred, v } => ConstrainedAtom::new(
            &format!("q{pred}"),
            vec![x(), Term::var(Var(1))],
            Constraint::cmp(x(), CmpOp::Le, Term::var(Var(1)))
                .and(Constraint::eq(Term::var(Var(1)), Term::int(v))),
        ),
    }
}

fn atom_strategy() -> impl Strategy<Value = AtomShape> {
    prop_oneof![
        ((0..4usize), (-50i64..50)).prop_map(|(pred, v)| AtomShape::Point { pred, v }),
        ((0..4usize), (-50i64..50), (0i64..9)).prop_map(|(pred, lo, w)| AtomShape::Interval {
            pred,
            lo,
            w
        }),
        ((0..4usize), (-50i64..50)).prop_map(|(pred, v)| AtomShape::TwoVar { pred, v }),
    ]
}

#[derive(Debug, Clone)]
enum PayloadShape {
    Batch {
        ticket_base: u64,
        deletes: Vec<AtomShape>,
        inserts: Vec<AtomShape>,
    },
    Recovery {
        shard: usize,
        epoch: u64,
    },
    Checkpoint {
        epoch: u64,
    },
}

fn payload_strategy() -> impl Strategy<Value = PayloadShape> {
    prop_oneof![
        4 => (
            (0u64..10_000),
            collection::vec(atom_strategy(), 0..4_usize),
            collection::vec(atom_strategy(), 0..4_usize),
        )
            .prop_map(|(ticket_base, deletes, inserts)| PayloadShape::Batch {
                ticket_base,
                deletes,
                inserts,
            }),
        1 => ((0..8usize), (0u64..10_000))
            .prop_map(|(shard, epoch)| PayloadShape::Recovery { shard, epoch }),
        1 => (0u64..10_000).prop_map(|epoch| PayloadShape::Checkpoint { epoch }),
    ]
}

/// Realizes shapes as payloads; batches get ascending epochs so the
/// stream looks like a real WAL.
fn payloads_from(shapes: &[PayloadShape]) -> Vec<WalPayload> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, s)| match s {
            PayloadShape::Batch {
                ticket_base,
                deletes,
                inserts,
            } => WalPayload::Batch {
                epoch: i as u64 + 1,
                ticket_base: *ticket_base,
                batch: UpdateBatch {
                    deletes: deletes.iter().map(atom).collect(),
                    inserts: inserts.iter().map(atom).collect(),
                },
            },
            PayloadShape::Recovery { shard, epoch } => WalPayload::Recovery {
                shard: *shard,
                epoch: *epoch,
            },
            PayloadShape::Checkpoint { epoch } => WalPayload::Checkpoint { epoch: *epoch },
        })
        .collect()
}

fn payload_epoch(p: &WalPayload) -> u64 {
    match p {
        WalPayload::Batch { epoch, .. }
        | WalPayload::Recovery { epoch, .. }
        | WalPayload::Checkpoint { epoch } => *epoch,
        _ => 0,
    }
}

/// The on-disk segment files, ascending by sequence number.
fn segments(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name()?.to_str()?;
            (name.starts_with("wal-") && name.ends_with(".log")).then(|| p.clone())
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(32),
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// The pure codec: render → parse is the identity on every payload.
    #[test]
    fn codec_roundtrips(shapes in collection::vec(payload_strategy(), 1..=8_usize)) {
        for payload in payloads_from(&shapes) {
            let rendered = render_wal_payload(&payload);
            let parsed = parse_wal_payload(&rendered)
                .unwrap_or_else(|e| panic!("unparseable rendering {rendered:?}: {e}"));
            prop_assert_eq!(&parsed, &payload, "codec not identity: {}", rendered);
        }
    }

    /// The full log: append through `Wal` (with random segment sizes,
    /// so rotation boundaries land everywhere), read back with
    /// `scan_dir` — same payloads, same order, clean tail.
    #[test]
    fn segmented_log_roundtrips(
        shapes in collection::vec(payload_strategy(), 1..=10_usize),
        segment_bytes in prop_oneof![Just(1u64), Just(64), Just(256), Just(8 << 20)],
    ) {
        let dir = case_dir();
        let payloads = payloads_from(&shapes);
        {
            let wal = Wal::open(&dir, FsyncPolicy::Never, segment_bytes, 1).unwrap();
            for p in &payloads {
                wal.append(payload_epoch(p), &render_wal_payload(p)).unwrap();
            }
        }
        let scan = scan_dir(&dir, false).unwrap();
        prop_assert!(!scan.torn_tail);
        prop_assert_eq!(&scan.payloads, &payloads);
        prop_assert_eq!(scan.segments, segments(&dir).len() as u64);
        prop_assert!(scan.next_seq > scan.segments, "next_seq past every segment");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncated tail (the crash mid-write): cutting the final frame at
    /// any interior byte loses exactly that record, silently — and in
    /// repair mode the torn bytes are removed so the next scan is
    /// clean.
    #[test]
    fn truncated_tail_drops_exactly_the_last_record(
        // ≥ 2: the first appends create the segment before the cut one.
        shapes in collection::vec(payload_strategy(), 2..=6_usize),
        cut_pick in 0u32..1000,
    ) {
        let dir = case_dir();
        let payloads = payloads_from(&shapes);
        let (intact_len, full_len, seg);
        {
            // One big segment so the tail is in the same file as the
            // rest of the history.
            let wal = Wal::open(&dir, FsyncPolicy::Never, 8 << 20, 1).unwrap();
            for p in &payloads[..payloads.len() - 1] {
                wal.append(payload_epoch(p), &render_wal_payload(p)).unwrap();
            }
            seg = segments(&dir).pop().expect("one segment");
            intact_len = std::fs::metadata(&seg).unwrap().len();
            let last = payloads.last().unwrap();
            wal.append(payload_epoch(last), &render_wal_payload(last)).unwrap();
            full_len = std::fs::metadata(&seg).unwrap().len();
        }
        // Cut strictly inside the final frame: at least one byte of it
        // remains, at least one byte is missing.
        let span = full_len - intact_len;
        let cut = intact_len + 1 + (span - 2) * u64::from(cut_pick) / 1000;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let scan = scan_dir(&dir, true).unwrap();
        prop_assert!(scan.torn_tail, "a cut frame must be reported torn");
        prop_assert_eq!(&scan.payloads, &payloads[..payloads.len() - 1]);
        // Repair truncated the torn bytes: scanning again is clean.
        prop_assert_eq!(std::fs::metadata(&seg).unwrap().len(), intact_len);
        let rescan = scan_dir(&dir, false).unwrap();
        prop_assert!(!rescan.torn_tail);
        prop_assert_eq!(&rescan.payloads, &payloads[..payloads.len() - 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupted history (any byte of a non-final segment): never
    /// silently dropped — the scan fails with `StorageError::Corrupt`,
    /// repair mode or not.
    #[test]
    fn corrupt_nonfinal_segment_is_an_explicit_error(
        shapes in collection::vec(payload_strategy(), 2..=6_usize),
        victim_pick in 0u32..1000,
        offset_pick in 0u32..1000,
    ) {
        let dir = case_dir();
        let payloads = payloads_from(&shapes);
        {
            // segment_bytes=1: every append rotates, one frame per
            // segment, so all but the last segment are "history".
            let wal = Wal::open(&dir, FsyncPolicy::Never, 1, 1).unwrap();
            for p in &payloads {
                wal.append(payload_epoch(p), &render_wal_payload(p)).unwrap();
            }
        }
        let segs = segments(&dir);
        prop_assert_eq!(segs.len(), payloads.len());
        let victim = &segs[(segs.len() - 1) * victim_pick as usize / 1000];
        let mut bytes = std::fs::read(victim).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let lo = header_end + 1;
        let target = lo + (bytes.len() - 1 - lo) * offset_pick as usize / 1000;
        bytes[target] ^= 0x01;
        std::fs::write(victim, bytes).unwrap();

        for repair in [false, true] {
            match scan_dir(&dir, repair) {
                Err(StorageError::Corrupt { file, .. }) => {
                    prop_assert_eq!(&file, victim, "corruption attributed to its segment")
                }
                other => prop_assert!(
                    false,
                    "scan of corrupt history must fail with Corrupt, got {other:?}"
                ),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
