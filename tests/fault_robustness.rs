//! I/O-fault robustness: arbitrary deterministic fault schedules ([`FaultPlan`])
//! injected beneath a file-backed sketch must never panic, never produce a false
//! acknowledgement, and always leave a reopenable-or-honestly-reported store behind.
//!
//! Three layers of guarantee, each its own property:
//!
//! * **Hard faults fail stop.** `EIO`/`ENOSPC`/torn writes at arbitrary occurrences
//!   poison the store: the failing `try_insert` returns a typed
//!   [`GssError::StoreFailed`], every later write is rejected with the same sticky
//!   cause, reads keep serving from cache, and the [`DurabilityReport`] is coherent
//!   (`durable ≤ acked`, `breached = acked − durable`).
//! * **No false acks across reopen.** After the fault clears (guard dropped), a
//!   successful reopen recovers at least every item the report counted durable; a
//!   failed reopen is only acceptable when the store had already confessed to the
//!   fault by poisoning itself.
//! * **Transient faults are invisible.** `EINTR`/short-read schedules complete the
//!   whole ingest with `io_retries` counted in [`GssStats`] and no poisoning.

use gss::prelude::*;
use gss_core::wal::wal_path;
use gss_core::{
    install_fault_plan, Durability, DurabilityReport, FaultGuard, FaultKind, FaultOp, FaultPlan,
    FaultSite, GroupCommit, GssError, PersistenceError,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Items each schedule attempts to ingest — enough WAL/page traffic that most
/// scheduled occurrences are actually reached.
const ATTEMPTED_ITEMS: u64 = 600;

fn fault_config() -> GssConfig {
    // Small matrix + tiny cache: forces page-cache misses (read traffic), buffer
    // spills (extra WAL frames) and frequent write-back (write traffic).
    GssConfig::paper_small(24)
}

/// A unique sketch path whose file name doubles as the fault-plan token.
fn unique_path(tag: &str) -> (PathBuf, String) {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let sequence = SEQUENCE.fetch_add(1, Ordering::Relaxed);
    let token = format!("gss-faultrobust-{tag}-{}-{sequence}", std::process::id());
    (std::env::temp_dir().join(format!("{token}.gss")), token)
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(wal_path(path)).ok();
}

/// Deterministic edge stream shared by ingest and verification.
fn edge(state: &mut u64) -> (u64, u64, i64) {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 33) % 300, (*state >> 17) % 300, (*state % 7) as i64 + 1)
}

/// Strategy: one hard-fault site (`eio`/`enospc` on any write-side op, `torn` on
/// positioned writes only — tearing a sync has no meaning).
fn hard_site() -> impl Strategy<Value = FaultSite> {
    (0usize..5, 0usize..3, 1u64..400).prop_map(|(op, kind, at)| {
        let op =
            [FaultOp::Write, FaultOp::SyncData, FaultOp::SyncAll, FaultOp::SetLen, FaultOp::Write]
                [op];
        let kind = match kind {
            0 => FaultKind::Eio,
            1 => FaultKind::Enospc,
            _ if op == FaultOp::Write => FaultKind::TornWrite,
            _ => FaultKind::Eio,
        };
        FaultSite { op, kind, at }
    })
}

/// Strategy: one transient site (`eintr` on reads/writes, `short` on reads).  Syncs
/// are excluded: an interrupted fsync is *hard* by design — after any fsync failure
/// the kernel may have cleared dirty flags, so the page layer never retries it.
/// Occurrence numbers stay low enough that the schedule actually fires during the run.
fn transient_site() -> impl Strategy<Value = FaultSite> {
    (0usize..2, any::<bool>(), 1u64..40).prop_map(|(op, short, at)| {
        let op = [FaultOp::Read, FaultOp::Write][op];
        let kind =
            if short && op == FaultOp::Read { FaultKind::ShortRead } else { FaultKind::Eintr };
        FaultSite { op, kind, at }
    })
}

/// Ingests under the schedule and returns `(acked, first fault seen, report,
/// a query edge and its reply while poisoned)`.  Panics anywhere are test failures.
fn run_hard_schedule(path: &Path, seed: u64) -> (u64, bool, DurabilityReport) {
    let sketch = GssSketch::with_storage(
        fault_config(),
        StorageBackend::File { path: path.to_path_buf(), cache_pages: 4 },
    );
    let Ok(mut sketch) = sketch else {
        // The schedule hit file creation itself: a typed error, nothing durable,
        // nothing acknowledged — fail-stop at birth is a clean outcome.
        return (0, false, DurabilityReport::default());
    };
    let mut state = seed | 1;
    let mut acked = 0u64;
    let mut probe = None;
    let mut faulted = false;
    for _ in 0..ATTEMPTED_ITEMS {
        let (source, destination, weight) = edge(&mut state);
        match sketch.try_insert(source, destination, weight) {
            Ok(()) => {
                acked += 1;
                probe.get_or_insert((source, destination));
            }
            Err(GssError::StoreFailed(_)) => {
                faulted = true;
                break;
            }
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    if faulted {
        // Fail-stop is sticky: the store rejects new writes with the same cause...
        prop_assert!(sketch.is_poisoned(), "a StoreFailed insert must poison the store");
        prop_assert!(
            matches!(sketch.try_insert(1, 2, 3), Err(GssError::StoreFailed(_))),
            "poisoned store must reject writes"
        );
        // ...while reads keep serving from cache/memory state.
        if let Some((source, destination)) = probe {
            let _ = sketch.edge_weight(source, destination);
            let _ = sketch.successors(source);
        }
        let stats = sketch.detailed_stats();
        prop_assert_eq!(stats.store_poisoned, 1);
        prop_assert!(stats.injected_faults >= 1, "poison without an injected fault");
    }
    let report = sketch.durability_report();
    prop_assert_eq!(report.poisoned, faulted, "report and observed fail-stop agree");
    prop_assert!(report.durable_items <= report.acked_items, "durable is a prefix of acked");
    if report.poisoned {
        prop_assert_eq!(
            report.breached_items,
            report.acked_items - report.durable_items,
            "breach count must equal the acked-but-not-durable difference"
        );
    } else {
        prop_assert_eq!(report.breached_items, 0, "no breach without a fault");
    }
    // Simulated crash: walk away without the destructor's checkpoint.
    sketch.abandon();
    (acked, faulted, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary hard-fault schedules: ingest fail-stops (or completes, when the
    /// scheduled occurrences are never reached), the report stays coherent, and a
    /// post-fault reopen never loses an item the report called durable.
    #[test]
    fn hard_fault_schedules_fail_stop_without_false_acks(
        sites in prop::collection::vec(hard_site(), 1..4),
        seed in any::<u64>(),
    ) {
        let (path, token) = unique_path("hard");
        let guard = install_fault_plan(FaultPlan::for_path_token(&token, sites));
        let outcome = std::panic::catch_unwind(|| run_hard_schedule(&path, seed));
        drop(guard); // clear the schedule before reopening
        let (acked, faulted, report) = match outcome {
            Ok(values) => values,
            Err(panic_payload) => {
                cleanup(&path);
                std::panic::resume_unwind(panic_payload);
            }
        };
        if path.exists() {
            match GssSketch::open_file(&path, 4) {
                Ok(recovered) => {
                    prop_assert!(
                        recovered.items_inserted() >= report.durable_items,
                        "reopen lost durable items: recovered {} < durable {} (acked {acked})",
                        recovered.items_inserted(),
                        report.durable_items,
                    );
                    let _ = recovered.detailed_stats();
                }
                Err(_) => {
                    // A reopen may only fail after the store confessed: an unpoisoned
                    // run abandoned mid-stream is ordinary crash recovery and must work.
                    prop_assert!(
                        faulted,
                        "reopen failed although no hard fault ever fired (acked {acked})"
                    );
                }
            }
        }
        cleanup(&path);
    }

    /// Transient-only schedules are absorbed by the bounded retry layer: every insert
    /// acknowledges, nothing poisons, and the retries are visible in `GssStats`.
    #[test]
    fn transient_schedules_complete_with_counted_retries(
        sites in prop::collection::vec(transient_site(), 1..4),
        seed in any::<u64>(),
    ) {
        let (path, token) = unique_path("transient");
        let guard = install_fault_plan(FaultPlan::for_path_token(&token, sites));
        let mut sketch = GssSketch::with_storage(
            fault_config(),
            StorageBackend::File { path: path.clone(), cache_pages: 4 },
        )
        .expect("transient faults must not fail creation");
        let mut state = seed | 1;
        let mut expected = std::collections::HashMap::new();
        for _ in 0..ATTEMPTED_ITEMS {
            let (source, destination, weight) = edge(&mut state);
            prop_assert!(
                sketch.try_insert(source, destination, weight).is_ok(),
                "transient schedules must never surface an error"
            );
            *expected.entry((source, destination)).or_insert(0i64) += weight;
        }
        prop_assert!(!sketch.is_poisoned());
        let stats = sketch.detailed_stats();
        prop_assert_eq!(stats.store_poisoned, 0);
        if stats.injected_faults > 0 {
            prop_assert!(
                stats.io_retries >= 1,
                "an injected transient fault must be visible as a retry"
            );
        }
        // Point queries agree with the exact stream (GSS is exact up to room sharing;
        // weights only ever over-count, never drop).
        for (&(source, destination), &weight) in expected.iter().take(16) {
            let stored = sketch.edge_weight(source, destination).unwrap_or(0);
            prop_assert!(stored >= weight, "acked weight went missing under retries");
        }
        sketch.sync().expect("clean sync after transient faults");
        drop(sketch);
        drop(guard);
        let recovered = GssSketch::open_file(&path, 4).expect("clean reopen");
        prop_assert_eq!(recovered.items_inserted(), ATTEMPTED_ITEMS);
        cleanup(&path);
    }
}

/// The environment-variable spec path (`GSS_FAULT_PLAN`) parses the same grammar the
/// harness ships; a bad spec must be rejected, a good one round-trips.
#[test]
fn fault_plan_spec_grammar_round_trips() {
    let plan = FaultPlan::parse("write:torn@12;sync_data:eio@3;read:short@1").unwrap();
    let guard = install_fault_plan(plan.with_path_token("no-such-file-token"));
    assert_eq!(guard.plan().injected(), 0);
    assert!(FaultPlan::parse("write:eio@0").is_err(), "occurrences are 1-based");
    assert!(FaultPlan::parse("fsync:eio@1").is_err(), "unknown op class");
}

/// Poisoning is per store: a second, healthy sketch in the same process is unaffected
/// by its sibling's fail-stop.
#[test]
fn poisoning_is_scoped_to_the_faulted_store() {
    let (faulted_path, token) = unique_path("scoped");
    let (healthy_path, _) = unique_path("scoped-healthy");
    // Token scoped to the WAL file alone: occurrence 1 is its magic header at create,
    // occurrence 2 the first post-create frame append.
    let guard = install_fault_plan(
        FaultPlan::parse("write:eio@2").unwrap().with_path_token(format!("{token}.gss.wal")),
    );
    let mut faulted = GssSketch::with_storage(
        fault_config(),
        StorageBackend::File { path: faulted_path.clone(), cache_pages: 4 },
    )
    .expect("creation survives (occurrence 1 is the WAL magic)");
    let mut healthy = GssSketch::with_storage(
        fault_config(),
        StorageBackend::File { path: healthy_path.clone(), cache_pages: 4 },
    )
    .expect("untokened sibling resolves no plan");
    let mut state = 7u64;
    let mut poisoned = false;
    for _ in 0..64 {
        let (source, destination, weight) = edge(&mut state);
        if faulted.try_insert(source, destination, weight).is_err() {
            poisoned = true;
            break;
        }
    }
    assert!(poisoned, "the scheduled write fault must fire within the run");
    assert!(faulted.is_poisoned());
    assert!(!healthy.is_poisoned(), "sibling store must stay healthy");
    for _ in 0..64 {
        let (source, destination, weight) = edge(&mut state);
        healthy.try_insert(source, destination, weight).expect("sibling keeps ingesting");
    }
    assert!(healthy.durability_report().breached_items == 0);
    faulted.abandon();
    healthy.abandon();
    drop(guard);
    cleanup(&faulted_path);
    cleanup(&healthy_path);
}

/// Restoring a snapshot onto a file backend under a write fault at any occurrence
/// either succeeds or reports `PersistenceError::Io` — never a panic, and never
/// another error class (the snapshot's configuration was already validated).
#[test]
fn snapshot_restore_onto_a_file_reports_write_faults_as_io_errors() {
    let mut source = GssSketch::new(GssConfig::paper_small(64)).unwrap();
    let mut state = 11u64;
    for _ in 0..4000 {
        let (source_vertex, destination, weight) = edge(&mut state);
        source.insert(source_vertex, destination, weight);
    }
    let snapshot = source.to_snapshot();
    let mut io_errors = 0;
    for at in 1..=40u64 {
        let (path, token) = unique_path("restore");
        let plan = FaultPlan::parse(&format!("write:eio@{at}")).unwrap().with_path_token(token);
        let guard = install_fault_plan(plan);
        let backend = StorageBackend::File { path: path.clone(), cache_pages: 1 };
        let outcome = std::panic::catch_unwind(|| {
            GssSketch::read_snapshot_into(snapshot.as_slice(), backend).map(GssSketch::abandon)
        });
        drop(guard);
        cleanup(&path);
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(PersistenceError::Io(_))) => io_errors += 1,
            Ok(Err(other)) => {
                panic!("write:eio@{at}: expected PersistenceError::Io, got {other:?}")
            }
            Err(_) => panic!("write:eio@{at}: snapshot restore panicked"),
        }
    }
    assert!(io_errors > 0, "the sweep must reach the restore's writes");
}

/// A 2-shard file-backed store whose shard-0 write-ahead log fails on its first drain
/// (occurrence 1 is the log magic written at create), plus the base path to reopen.
fn sharded_with_failing_shard0(tag: &str) -> (ShardedGss, PathBuf, FaultGuard) {
    let (base, token) = unique_path(tag);
    let guard = install_fault_plan(
        FaultPlan::parse("write:eio@2").unwrap().with_path_token(format!("{token}.gss.shard0.wal")),
    );
    let backend = StorageBackend::File { path: base.clone(), cache_pages: 4 };
    let store = ShardedGss::with_storage(fault_config(), 2, &backend)
        .expect("creation survives (occurrence 1 is the WAL magic)");
    (store, base, guard)
}

fn cleanup_sharded(base: &Path) {
    for shard in 0..2 {
        cleanup(&PathBuf::from(format!("{}.shard{shard}", base.display())));
    }
}

/// A batch spanning both shards of a 2-shard store, each item tagged with its shard.
fn two_shard_batch() -> Vec<(StreamEdge, usize)> {
    // An in-memory twin routes exactly like the file-backed store: routing depends only
    // on the source vertex and the shard count.
    let router = ShardedGss::new(fault_config(), 2).unwrap();
    let mut state = 5u64;
    (0..64)
        .map(|_| {
            let (source, destination, weight) = edge(&mut state);
            let before = router.with_shard_read(1, GssSketch::items_inserted);
            router.insert(source, destination, weight);
            let shard = usize::from(router.with_shard_read(1, GssSketch::items_inserted) > before);
            (StreamEdge::new(source, destination, 0, weight), shard)
        })
        .collect()
}

/// `ShardedGss::try_insert_batch` fails one shard without the other: the faulted
/// shard poisons and the call returns its typed fault, the report stays coherent, and
/// the healthy shard's sub-batch is acknowledged and survives a crash.
#[test]
fn a_shard_fault_fails_the_batch_and_spares_the_other_shards_sub_batch() {
    let (store, base, guard) = sharded_with_failing_shard0("sharded");
    let tagged = two_shard_batch();
    assert!(
        tagged.iter().any(|&(_, shard)| shard == 0) && tagged.iter().any(|&(_, shard)| shard == 1)
    );
    let batch: Vec<StreamEdge> = tagged.iter().map(|&(item, _)| item).collect();

    match store.try_insert_batch(&batch) {
        Err(GssError::StoreFailed(_)) => {}
        other => panic!("expected StoreFailed from the faulted shard, got {other:?}"),
    }
    assert!(store.is_poisoned());
    assert!(store.with_shard_read(0, GssSketch::is_poisoned));
    assert!(!store.with_shard_read(1, GssSketch::is_poisoned), "the fault stays in shard 0");
    let report = store.durability_report();
    assert!(report.poisoned);
    assert!(report.durable_items <= report.acked_items, "durable is a prefix of acked");
    assert_eq!(report.breached_items, report.acked_items - report.durable_items);
    let shard1_items = tagged.iter().filter(|&&(_, shard)| shard == 1).count() as u64;
    assert_eq!(store.with_shard_read(1, GssSketch::items_inserted), shard1_items);

    // Crash, clear the fault, reopen: shard 1 recovers its whole sub-batch.
    store.abandon().expect("sole handle");
    drop(guard);
    let reopened =
        ShardedGss::open_sharded(&base, 2, 4, Durability::Strict, GroupCommit::default())
            .expect("both shards reopen once the fault clears");
    assert_eq!(reopened.with_shard_read(1, GssSketch::items_inserted), shard1_items);
    let mut expected = std::collections::HashMap::new();
    for (item, _) in tagged.iter().filter(|&&(_, shard)| shard == 1) {
        *expected.entry((item.source, item.destination)).or_insert(0) += item.weight;
    }
    for ((source, destination), weight) in expected {
        let stored = reopened.edge_weight(source, destination).unwrap_or(0);
        assert!(stored >= weight, "acked shard-1 item ({source}, {destination}) lost");
    }
    drop(reopened);
    cleanup_sharded(&base);
}

/// The infallible `insert_batch` is the fallible path unwrapped at one panic boundary:
/// on a poisoned store it panics with the store's sticky cause.
#[test]
#[should_panic(expected = "sketch write failed: store failed")]
fn insert_batch_on_a_poisoned_sharded_store_panics_with_the_sticky_cause() {
    let (store, base, guard) = sharded_with_failing_shard0("sharded-panic");
    let batch: Vec<StreamEdge> = two_shard_batch().into_iter().map(|(item, _)| item).collect();
    assert!(store.try_insert_batch(&batch).is_err());
    let cause = store.durability_report().cause.expect("poisoned store names its cause");
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        store.insert_batch(&batch);
    }))
    .expect_err("insert_batch on a poisoned store must panic");
    let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
    store.abandon().expect("sole handle");
    drop(guard);
    cleanup_sharded(&base);
    assert!(message.contains(&cause.to_string()), "panic {message:?} lacks cause {cause}");
    std::panic::resume_unwind(payload);
}
