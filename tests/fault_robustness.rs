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
    install_fault_plan, DurabilityReport, FaultKind, FaultOp, FaultPlan, FaultSite, GssError,
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
