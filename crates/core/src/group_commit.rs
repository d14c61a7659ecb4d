//! Group-commit coordinator for write-ahead logs.
//!
//! Before this module, every `Strict` commit drained the WAL arena to disk while holding
//! the append mutex: encoding, the `write(2)`, and (at checkpoints) the `fsync` all
//! serialized behind one lock, and N sharded stores issued N independent sync streams.
//! The coordinator splits that work three ways:
//!
//! 1. **Appends stay cheap.**  Frames are encoded and CRC-stamped *outside* the append
//!    mutex (`crate::wal::room_frame` and friends); the mutex covers only a
//!    `Vec::extend_from_slice` into the pending arena.
//! 2. **Drains are double-buffered.**  A committer that finds its frames unwritten
//!    becomes the *leader* of a drain round: it swaps the member's pending arena against
//!    a spare under the append mutex (`WalWriter::take_pending`), then performs the
//!    positioned `write(2)` outside every lock while new appends fill the fresh arena.
//!    Committers that arrive mid-round park on a condition variable and are released by
//!    the leader; their target is acknowledged the moment the round's write completes.
//! 3. **Syncs are scheduled, not per-commit.**  Drained bytes count against a shared
//!    [`GroupCommit`] budget; when it trips, the current leader issues one `fdatasync`
//!    per member log with unsynced bytes.  A coordinator shared across the shards of a
//!    [`ShardedGss`](crate::ShardedGss) therefore syncs N logs on one cadence instead of
//!    N per-shard cadences — and bounds power-loss staleness to the knob's window, a
//!    guarantee plain `Strict` (which synced only at checkpoints) never gave.
//!
//! ## Write-ahead invariant and the drain token
//!
//! A **per-member** drain token serializes that member's drain rounds, so at most one
//! positioned arena write per member is ever in flight — while the shards of a
//! `ShardedGss` drain their independent logs concurrently.  `GroupCommitter::barrier`
//! (the pre-page-write-back drain) and the checkpoint's under-lock tail sync
//! (`GroupCommitter::exclusive`) take the same token, which closes the torn-log
//! window: without it, a checkpoint could `fdatasync` its TAIL frame while an earlier
//! arena write was still in flight, leaving a hole in front of the TAIL that hides it
//! from replay.
//!
//! ## Locking
//!
//! Two mutexes share lock class `GroupCommit`, and both are *leaves*: the coordinator's
//! member-list mutex and each member's token mutex are never held across member I/O or
//! any other lock — leaders flip the token flag (or clone the member list) and drop the
//! guard before draining.  Acquiring either while holding stripe, latch, or checkpoint
//! locks is legal; the full order is `checkpoint ≺ stripe ≺ latch ≺ group ≺ wal`
//! (enforced by `gss-lint` L001 and the runtime witness, lock class
//! [`LockClass::GroupCommit`]).

use crate::config::GroupCommit;
use crate::error::{StoreFault, StoreHealth};
use crate::file_store::{FlushHook, FlushPoint};
use crate::pager::page_file::PageFile;
use crate::pager::witness::{self, LockClass};
use crate::wal::WalWriter;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::Instant;

/// Write-ahead-log state guarded by a member's append mutex: the writer, the sketch
/// header's clean flag (rewritten only on transitions), and the spare drain arena.
pub(crate) struct WalState {
    /// Frame encoder and pending arena.
    pub(crate) writer: WalWriter,
    /// Mirrors the sketch header's clean flag so the header is only rewritten when the
    /// flag actually transitions.
    pub(crate) clean: bool,
    /// The idle half of the double buffer: `WalWriter::take_pending` swaps it in as
    /// the new pending arena while the taken one is written outside the lock.
    spare: Vec<u8>,
}

/// One write-ahead log registered with a [`GroupCommitter`]: the append mutex, the
/// shared log file handle for positioned out-of-lock drains, the durability-point
/// observer hook, and the drain/sync progress counters.
pub(crate) struct WalMember {
    /// The append mutex (lock class `WalAppend`); never held across file I/O except on
    /// the checkpoint tail path, which holds the drain token.
    pub(crate) wal: Mutex<WalState>,
    /// The log file, shared out of the writer so drains and syncs run outside the
    /// append mutex.
    log_file: Arc<PageFile>,
    /// Injectable observer of durability-relevant points (crash-test kill points).
    /// Leaf lock (class `Hook`).
    pub(crate) hook: Mutex<Option<FlushHook>>,
    /// Cumulative appended bytes whose log-file write has completed.  Commit targets
    /// are snapshots of [`WalWriter::appended_bytes`]; a commit is acknowledged once
    /// `written` reaches its target.
    written: AtomicU64,
    /// Cumulative appended bytes covered by the last sync of the log file.  Always a
    /// conservative lower bound on durable bytes (stored only after the sync returns).
    synced: AtomicU64,
    /// Drain rounds this member's committers led.
    group_commits: AtomicU64,
    /// Commits on this member that parked behind another leader's in-flight round.
    group_waits: AtomicU64,
    /// Sync calls issued against this member's log file.
    fsyncs: AtomicU64,
    /// This member's drain token (lock class `GroupCommit`): true while a drain round
    /// or a checkpoint's exclusive tail section is in flight for this log.  Per-member
    /// so the shards of a `ShardedGss` drain independently; held only to flip the
    /// flag, never across I/O.
    group_token: StdMutex<bool>,
    /// Signalled when this member's drain round ends; parked committers re-check their
    /// target.
    done: Condvar,
    /// The owning store's sticky fail-stop state: a failed
    /// drain or cadence sync poisons it *before* `written` advances, so a parked
    /// committer waking on its target always observes the poison (the fix for the
    /// "fsyncgate"-style false acknowledgement).
    health: Arc<StoreHealth>,
    /// Stream items acknowledged to callers (cumulative, per this member's log).
    acked_items: AtomicU64,
    /// Stream items whose commit frames completed their log-file write (cumulative);
    /// the honest lower bound [`DurabilityReport`](crate::DurabilityReport) exposes.
    durable_items: AtomicU64,
    /// Commits awaiting durability credit: append-target → cumulative item count.
    /// Plain leaf mutex, never held across I/O or any other lock.
    pending_acks: StdMutex<BTreeMap<u64, u64>>,
}

impl WalMember {
    pub(crate) fn new(writer: WalWriter, clean: bool, health: Arc<StoreHealth>) -> Arc<Self> {
        let log_file = writer.shared_file();
        Arc::new(Self {
            wal: Mutex::new(WalState { writer, clean, spare: Vec::new() }),
            log_file,
            hook: Mutex::new(None),
            written: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            group_waits: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            group_token: StdMutex::new(false),
            done: Condvar::new(),
            health,
            acked_items: AtomicU64::new(0),
            durable_items: AtomicU64::new(0),
            pending_acks: StdMutex::new(BTreeMap::new()),
        })
    }

    /// The owning store's fail-stop state.
    pub(crate) fn health(&self) -> &Arc<StoreHealth> {
        &self.health
    }

    /// Transient retries performed against this member's log file.
    pub(crate) fn log_io_retries(&self) -> u64 {
        self.log_file.io_retries()
    }

    /// Faults injected through this member's log-file handle.
    pub(crate) fn log_injected_faults(&self) -> u64 {
        self.log_file.injected_faults()
    }

    /// Registers a deferred commit for durability accounting: once `target` appended
    /// bytes complete their log-file write, `items` total stream items are covered by
    /// the log image.  Credited immediately when the log is already drained past the
    /// target (the entry would otherwise never be visited again).
    pub(crate) fn record_commit(&self, target: u64, items: u64) {
        unpoison(self.pending_acks.lock()).insert(target, items);
        self.credit_durable(self.written.load(Ordering::Acquire));
    }

    /// Marks `items` total stream items as acknowledged to the caller.
    pub(crate) fn record_ack(&self, items: u64) {
        // relaxed: a monotone accounting counter, read only by report snapshots.
        self.acked_items.fetch_max(items, Ordering::Relaxed);
    }

    /// Credits every pending commit whose target is covered by `written_upto`
    /// successfully written bytes.  A poisoned member credits nothing: `written` also
    /// advances for failed drains (to release parked committers), so its value no
    /// longer proves the bytes reached the file.
    fn credit_durable(&self, written_upto: u64) {
        if self.health.is_poisoned() {
            return;
        }
        let mut pending = unpoison(self.pending_acks.lock());
        if pending.range(..=written_upto).next().is_none() {
            return;
        }
        let still_pending = pending.split_off(&(written_upto.saturating_add(1)));
        let covered = pending.values().copied().max();
        *pending = still_pending;
        drop(pending);
        if let Some(items) = covered {
            // relaxed: a monotone accounting counter, read only by report snapshots.
            self.durable_items.fetch_max(items, Ordering::Relaxed);
        }
    }

    /// Snapshot of `(acked_items, durable_items)` for the durability report.
    pub(crate) fn item_counts(&self) -> (u64, u64) {
        // relaxed: accounting counters, read only by report snapshots.
        let acked = self.acked_items.load(Ordering::Relaxed);
        let durable = self.durable_items.load(Ordering::Relaxed);
        (acked, durable.min(acked))
    }

    /// Attempts to claim this member's drain token.  Returns `false` (after parking
    /// until the in-flight round ends) when another leader held it.  Pass
    /// `counted_wait = true` to suppress the `group_waits` bump (non-commit callers).
    fn try_claim(&self, counted_wait: &mut bool) -> bool {
        let _group_held = witness::acquire(LockClass::GroupCommit);
        let mut draining = unpoison(self.group_token.lock());
        if *draining {
            if !*counted_wait {
                *counted_wait = true;
                // relaxed: monitoring counter, read only by stats snapshots.
                self.group_waits.fetch_add(1, Ordering::Relaxed);
            }
            drop(unpoison(self.done.wait(draining)));
            return false;
        }
        *draining = true;
        true
    }

    /// Releases the drain token and wakes this member's parked committers.
    fn release_token(&self) {
        {
            let _group_held = witness::acquire(LockClass::GroupCommit);
            *unpoison(self.group_token.lock()) = false;
        }
        self.done.notify_all();
    }

    /// Invokes the installed flush hook, if any.  The hook mutex is a leaf: nothing is
    /// acquired while it is held, so firing under any store lock is safe.
    pub(crate) fn fire(&self, point: FlushPoint) {
        let _hook_held = witness::acquire(LockClass::Hook);
        if let Some(hook) = self.hook.lock().as_mut() {
            hook(point);
        }
    }

    /// Accounts a legacy under-lock [`WalWriter::sync`] (the checkpoint tail path):
    /// `bytes` were pending before the call and are now both written and synced.
    /// Without this, commit targets derived from the cumulative append counter would
    /// outrun `written` and park followers forever.
    pub(crate) fn note_synced_locked(&self, bytes: u64) {
        let written = self.written.fetch_add(bytes, Ordering::AcqRel) + bytes;
        self.synced.fetch_max(written, Ordering::AcqRel);
        // relaxed: monitoring counter, read only by stats snapshots.
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.credit_durable(written);
    }

    /// Snapshot of the drain/sync counters: `(group_commits, group_waits, fsyncs)`.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (
            // relaxed: monitoring counters, read only by stats snapshots.
            self.group_commits.load(Ordering::Relaxed),
            self.group_waits.load(Ordering::Relaxed),
            self.fsyncs.load(Ordering::Relaxed),
        )
    }
}

/// State shared between the coordinator's committers and its cadence sync thread.
struct SyncShared {
    knob: GroupCommit,
    /// Every registered member, swept by the sync cadence.  Leaf mutex (lock class
    /// `GroupCommit`): held only to snapshot or edit the list, never across I/O or
    /// other locks.
    group: StdMutex<Vec<Arc<WalMember>>>,
    /// Wakes the cadence thread early (byte-budget trip, shutdown).
    wake: Condvar,
    /// Cadence-thread control state; plain leaf mutex, never held across I/O.
    cadence: StdMutex<CadenceState>,
    /// Origin of the sync cadence clock.
    epoch: Instant,
    /// Bytes drained since the last cadence sync, across all members.
    bytes_since_sync: AtomicU64,
    /// Cadence-clock reading (µs since `epoch`) of the last cadence sync.
    last_sync_micros: AtomicU64,
}

#[derive(Default)]
struct CadenceState {
    shutdown: bool,
    /// A committer tripped the byte budget; coalesced so one sweep answers many kicks.
    kicked: bool,
    /// First background `fdatasync` failure; latched and re-raised to the next writer
    /// that leads a round, so a broken staleness bound never passes silently.  Typed so
    /// the original [`io::ErrorKind`] survives the hop across threads.
    error: Option<StoreFault>,
}

/// Group-commit coordinator: schedules WAL drains and log syncs for one or more
/// `WalMember`s (the shards of a [`ShardedGss`](crate::ShardedGss) share one).
///
/// With a non-zero [`GroupCommit`] knob the cadence `fdatasync` sweep runs on a
/// dedicated background thread (`gss-group-sync`), so commits pay only their
/// positioned arena `write(2)` — acknowledgement under `Strict` rides on the write,
/// never on the sync.  A zero knob (either field) keeps the sweep inline, syncing
/// every led round: the historical sync-per-commit behaviour.
pub struct GroupCommitter {
    shared: Arc<SyncShared>,
    /// The cadence thread; `None` under a zero knob (inline sweeps).
    thread: Option<std::thread::JoinHandle<()>>,
}

/// RAII drain token of one member: while held, no drain round for that member may
/// start and none is in flight.  Taken by the checkpoint around its under-lock tail
/// append + sync.
pub(crate) struct DrainGuard<'a> {
    member: &'a WalMember,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        self.member.release_token();
    }
}

fn unpoison<T>(result: Result<T, PoisonError<T>>) -> T {
    // The group mutex only ever guards plain flag/Vec updates, so a poisoned lock
    // (a committer panicking in `io_fail`) leaves consistent state behind.
    result.unwrap_or_else(PoisonError::into_inner)
}

impl GroupCommitter {
    /// Creates a coordinator with the given scheduling knob, spawning the cadence sync
    /// thread unless the knob is zero (sync-every-round semantics need no cadence).
    pub fn new(knob: GroupCommit) -> Arc<Self> {
        let shared = Arc::new(SyncShared {
            knob,
            group: StdMutex::new(Vec::new()),
            wake: Condvar::new(),
            cadence: StdMutex::new(CadenceState::default()),
            epoch: Instant::now(),
            bytes_since_sync: AtomicU64::new(0),
            last_sync_micros: AtomicU64::new(0),
        });
        let thread = (knob.max_delay_us > 0 && knob.max_bytes > 0).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gss-group-sync".into())
                .spawn(move || Self::cadence_loop(&shared))
                .expect("spawn the group-commit cadence thread")
        });
        Arc::new(Self { shared, thread })
    }

    /// The scheduling knob this coordinator was built with.
    pub fn knob(&self) -> GroupCommit {
        self.shared.knob
    }

    /// Adds a member log to the sync-cadence sweep.
    pub(crate) fn register(&self, member: &Arc<WalMember>) {
        let _group_held = witness::acquire(LockClass::GroupCommit);
        unpoison(self.shared.group.lock()).push(Arc::clone(member));
    }

    /// Removes a member (store close) so the cadence sweep stops touching its file.
    pub(crate) fn deregister(&self, member: &Arc<WalMember>) {
        let _group_held = witness::acquire(LockClass::GroupCommit);
        unpoison(self.shared.group.lock()).retain(|m| !Arc::ptr_eq(m, member));
    }

    /// Cadence thread body: sleep out the delay window (woken early by byte-budget
    /// kicks and shutdown), then sweep.  Sync failures latch into the control state
    /// and re-raise on the next led commit round.
    fn cadence_loop(shared: &SyncShared) {
        let window = std::time::Duration::from_micros(shared.knob.max_delay_us);
        loop {
            {
                let mut state = unpoison(shared.cadence.lock());
                if !state.shutdown && !state.kicked {
                    state = unpoison(shared.wake.wait_timeout(state, window)).0;
                }
                if state.shutdown {
                    return;
                }
                state.kicked = false;
            }
            if let Err(error) = shared.sweep() {
                let fault = StoreFault::from_io("background group-commit sync", &error);
                unpoison(shared.cadence.lock()).error.get_or_insert(fault);
            }
        }
    }

    /// Wakes the cadence thread ahead of its delay window (the byte budget tripped).
    fn kick(&self) {
        let mut state = unpoison(self.shared.cadence.lock());
        if !state.kicked {
            state.kicked = true;
            self.shared.wake.notify_one();
        }
    }

    /// Re-raises a latched background sync failure to the calling writer.
    fn check_sync_error(&self) -> io::Result<()> {
        match &unpoison(self.shared.cadence.lock()).error {
            Some(fault) => Err(fault.to_io()),
            None => Ok(()),
        }
    }

    /// Acknowledges once `member`'s log-file write covers `target` appended bytes
    /// (a [`WalWriter::appended_bytes`] snapshot), leading a drain round if needed.
    pub(crate) fn commit(&self, member: &Arc<WalMember>, target: u64) -> io::Result<()> {
        let mut counted_wait = false;
        loop {
            // Acquire pairs with the AcqRel bump after a completed round, so an
            // acknowledged committer also observes the round's writer-side state.
            if member.written.load(Ordering::Acquire) >= target {
                // `written` also advances for *failed* drains (to release parked
                // committers), so reaching the target proves nothing by itself: a
                // member poisoned at or before this point must error every commit
                // whose bytes the failed round may have covered, not just the
                // leader's.  The poison store is ordered before the `written`
                // advance, so this check cannot miss the failure that woke us.
                member.health.check().map_err(|fault| fault.to_io())?;
                return Ok(());
            }
            member.health.check().map_err(|fault| fault.to_io())?;
            if !member.try_claim(&mut counted_wait) {
                continue;
            }
            if member.written.load(Ordering::Acquire) >= target {
                // A barrier drained our frames while we queued for the token; the
                // round is ours anyway, so just hand the token back.
                member.release_token();
                member.health.check().map_err(|fault| fault.to_io())?;
                return Ok(());
            }
            // relaxed: monitoring counter, read only by stats snapshots.
            member.group_commits.fetch_add(1, Ordering::Relaxed);
            let result = self.drain_and_sync(member);
            member.release_token();
            result?;
        }
    }

    /// Drains `member`'s pending frames and waits for the write to complete, without
    /// forcing a sync.  Called before page write-back to preserve the write-ahead
    /// invariant (`write(2)` ordering suffices: replay only needs the frames to be in
    /// the log image before the page image changes).
    pub(crate) fn barrier(&self, member: &Arc<WalMember>) -> io::Result<()> {
        // Fast path: every appended byte's write has completed (`written` is bumped
        // only after the positioned write returns).  This is the common case on the
        // eviction path, where most write-backs find the log already drained — one
        // uncontended per-member lock, no token traffic, no condvar broadcast.
        {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let wal = member.wal.lock();
            if member.written.load(Ordering::Acquire) >= wal.writer.appended_bytes() {
                return Ok(());
            }
        }
        // Suppressed wait counting: `group_waits` meters parked *commits* only.
        let mut counted_wait = true;
        while !member.try_claim(&mut counted_wait) {}
        let result = self.drain_member(member);
        member.release_token();
        result.map(drop)
    }

    /// Takes `member`'s drain token, waiting out any in-flight round.  While the guard
    /// lives, no arena write for that member is in flight and none may start — the
    /// checkpoint holds this across its under-lock TAIL append + sync so the synced
    /// log image can never have a hole in front of the TAIL frame.
    pub(crate) fn exclusive<'a>(&self, member: &'a Arc<WalMember>) -> DrainGuard<'a> {
        // Suppressed wait counting, as in `barrier`: this is not a parked commit.
        let mut counted_wait = true;
        while !member.try_claim(&mut counted_wait) {}
        DrainGuard { member }
    }

    /// Leader body: swap the member's arena under the append mutex, write it outside
    /// every lock, and return the fresh spare.  Must hold the drain token.
    fn drain_member(&self, member: &WalMember) -> io::Result<u64> {
        let (offset, mut arena) = {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let mut wal = member.wal.lock();
            if wal.writer.pending_bytes() == 0 {
                return Ok(0);
            }
            let mut arena = std::mem::take(&mut wal.spare);
            let offset = wal.writer.take_pending(&mut arena);
            (offset, arena)
        };
        member.fire(FlushPoint::WalArenaSwap);
        let result = member.log_file.write_all_at(&arena, offset);
        let bytes = arena.len() as u64;
        arena.clear();
        {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            member.wal.lock().spare = arena;
        }
        // The arena's bytes are consumed even when the write fails: advance `written`
        // either way so parked committers are released instead of spinning on an
        // unreachable target.  On failure the member is poisoned *before* `written`
        // advances (Release before the AcqRel bump), so every parked committer whose
        // target the failed round covered wakes, observes the poison, and errors out —
        // a failed round never turns into a silent acknowledgement.
        if let Err(error) = &result {
            member.health.poison(StoreFault::from_io("write-ahead-log drain", error));
        }
        let end = member.written.fetch_add(bytes, Ordering::AcqRel) + bytes;
        result?;
        member.credit_durable(end);
        member.fire(FlushPoint::WalFlush);
        Ok(bytes)
    }

    /// Leader body for [`commit`](Self::commit): drain, then apply the sync cadence —
    /// a kick of the background thread when the byte budget trips (non-zero knob), or
    /// an inline sweep every round (zero knob).
    fn drain_and_sync(&self, member: &WalMember) -> io::Result<()> {
        let drained = self.drain_member(member)?;
        self.check_sync_error()?;
        let shared = &self.shared;
        // Drain tokens are per member, so leaders of different members may race the
        // cadence heuristics below — at worst two rounds both trip the cadence,
        // perturbing the sync schedule by one sweep.  Acknowledgement never rides on
        // these: it is carried by `written`/`synced`.
        // relaxed: cadence heuristics, see above.
        let since = shared.bytes_since_sync.fetch_add(drained, Ordering::Relaxed) + drained;
        let now_micros = shared.epoch.elapsed().as_micros() as u64;
        // relaxed: cadence heuristics, see above.
        let last = shared.last_sync_micros.load(Ordering::Relaxed);
        if since < shared.knob.max_bytes
            && now_micros.saturating_sub(last) < shared.knob.max_delay_us
        {
            return Ok(());
        }
        if self.thread.is_some() {
            self.kick();
            Ok(())
        } else {
            shared.sweep()
        }
    }
}

impl SyncShared {
    /// One cadence round: `fdatasync` every member whose log holds written-but-unsynced
    /// bytes, resetting the cadence budget first so concurrent trippers coalesce.
    fn sweep(&self) -> io::Result<()> {
        // relaxed: cadence heuristics; see `drain_and_sync`.
        self.bytes_since_sync.store(0, Ordering::Relaxed);
        self.last_sync_micros.store(self.epoch.elapsed().as_micros() as u64, Ordering::Relaxed);
        let members = {
            let _group_held = witness::acquire(LockClass::GroupCommit);
            unpoison(self.group.lock()).clone()
        };
        for m in &members {
            // A poisoned member is skipped outright: retrying a failed fdatasync and
            // trusting the retried success is the fsyncgate trap — the kernel may have
            // dropped the dirty pages the first failure covered.
            if m.health.is_poisoned() {
                continue;
            }
            let written = m.written.load(Ordering::Acquire);
            if written > m.synced.load(Ordering::Acquire) {
                // gss-lint: allow(L006, loop iterates distinct members once each — a failed member poisons and the health gate above keeps every later sweep off it)
                if let Err(error) = m.log_file.sync_data() {
                    // `synced` must NOT advance: the bytes are not durable, and the
                    // poison keeps every later sweep from retrying this member.
                    m.health.poison(StoreFault::from_io("group-commit fdatasync", &error));
                    return Err(error);
                }
                // fetch_max, not store: a concurrent checkpoint sync on another
                // member may have advanced `synced` past our pre-sync snapshot.
                m.synced.fetch_max(written, Ordering::AcqRel);
                // relaxed: monitoring counter, read only by stats snapshots.
                m.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            unpoison(self.shared.cadence.lock()).shutdown = true;
            self.shared.wake.notify_all();
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for GroupCommitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitter").field("knob", &self.shared.knob).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{read_replay, wal_path, COMMIT_FRAME_BYTES};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    /// Scoped temp log file: removed on drop so test runs never collide.
    struct TempLog(PathBuf);

    impl Drop for TempLog {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn member(name: &str) -> (Arc<WalMember>, TempLog) {
        let path = wal_path(
            &std::env::temp_dir().join(format!("gss-group-{}-{name}.gss", std::process::id())),
        );
        let writer = WalWriter::create(&path).expect("create wal");
        (WalMember::new(writer, true, Arc::new(StoreHealth::new())), TempLog(path))
    }

    #[test]
    fn commit_acknowledges_only_written_targets() {
        let (member, log) = member("ack");
        let committer = GroupCommitter::new(GroupCommit::default());
        committer.register(&member);

        let target = {
            let mut wal = member.wal.lock();
            wal.writer.log_commit(3);
            wal.writer.appended_bytes()
        };
        committer.commit(&member, target).expect("commit");
        assert!(member.written.load(Ordering::Acquire) >= target);
        let replay = read_replay(&log.0, 64).expect("replay").expect("decodes");
        assert_eq!(replay.items, Some(3));
        let (commits, _, _) = member.counters();
        assert_eq!(commits, 1);
    }

    #[test]
    fn barrier_drains_without_forcing_a_sync() {
        let (member, _log) = member("barrier");
        let committer =
            GroupCommitter::new(GroupCommit { max_delay_us: u64::MAX, max_bytes: u64::MAX });
        committer.register(&member);
        {
            let mut wal = member.wal.lock();
            wal.writer.log_commit(1);
        }
        committer.barrier(&member).expect("barrier");
        assert_eq!(member.wal.lock().writer.pending_bytes(), 0);
        let (_, _, fsyncs) = member.counters();
        assert_eq!(fsyncs, 0, "barrier must not sync");
    }

    #[test]
    fn zero_budget_knob_syncs_every_round() {
        let (member, _log) = member("zero-budget");
        let committer = GroupCommitter::new(GroupCommit { max_delay_us: 0, max_bytes: 0 });
        committer.register(&member);
        for round in 1..=3u64 {
            let target = {
                let mut wal = member.wal.lock();
                wal.writer.log_commit(round);
                wal.writer.appended_bytes()
            };
            committer.commit(&member, target).expect("commit");
            let (_, _, fsyncs) = member.counters();
            assert_eq!(fsyncs, round);
        }
        assert_eq!(member.synced.load(Ordering::Acquire), 3 * COMMIT_FRAME_BYTES as u64);
    }

    #[test]
    fn cadence_covers_every_registered_member_in_one_round() {
        let (a, _log_a) = member("cadence-a");
        let (b, _log_b) = member("cadence-b");
        let committer =
            GroupCommitter::new(GroupCommit { max_delay_us: u64::MAX, max_bytes: u64::MAX });
        committer.register(&a);
        committer.register(&b);

        // b drains via barrier (written, unsynced), then a commit on a trips a forced
        // cadence round: one sweep must sync both logs.
        let mut wal_b = b.wal.lock();
        wal_b.writer.log_commit(7);
        drop(wal_b);
        committer.barrier(&b).expect("barrier b");

        let zero = GroupCommitter::new(GroupCommit { max_delay_us: 0, max_bytes: 0 });
        zero.register(&a);
        zero.register(&b);
        let target = {
            let mut wal = a.wal.lock();
            wal.writer.log_commit(1);
            wal.writer.appended_bytes()
        };
        zero.commit(&a, target).expect("commit a");
        let (_, _, fsyncs_a) = a.counters();
        let (_, _, fsyncs_b) = b.counters();
        assert_eq!(fsyncs_a, 1);
        assert_eq!(fsyncs_b, 1, "unsynced member b is swept by a's cadence round");
    }

    #[test]
    fn concurrent_commits_share_drain_rounds() {
        let (member, log) = member("concurrent");
        let committer = GroupCommitter::new(GroupCommit::default());
        committer.register(&member);
        let items = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|scope| {
            for _ in 0..4 {
                let member = Arc::clone(&member);
                let committer = Arc::clone(&committer);
                let items = Arc::clone(&items);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let target = {
                            let mut wal = member.wal.lock();
                            wal.writer.log_commit(1);
                            wal.writer.appended_bytes()
                        };
                        committer.commit(&member, target).expect("commit");
                        items.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });

        assert_eq!(items.load(Ordering::Relaxed), 200);
        assert_eq!(member.wal.lock().writer.pending_bytes(), 0);
        assert_eq!(member.written.load(Ordering::Acquire), 200 * COMMIT_FRAME_BYTES as u64);
        // Every acknowledged frame must be in the log image (write-ahead, pre-sync).
        let replay = read_replay(&log.0, 64).expect("replay").expect("decodes");
        assert_eq!(replay.items, Some(1));
    }

    #[test]
    fn failed_drain_poisons_the_member_and_errors_every_covered_commit() {
        let token = format!("gss-group-{}-failstop", std::process::id());
        // Occurrence 1 is the magic-header write at create; 2 is the drain itself.
        let _guard = crate::pager::faults::install(
            crate::pager::faults::FaultPlan::parse("write:eio@2")
                .expect("parse plan")
                .with_path_token(&token),
        );
        let (member, _log) = member("failstop");
        let committer = GroupCommitter::new(GroupCommit::default());
        committer.register(&member);

        let target = {
            let mut wal = member.wal.lock();
            wal.writer.log_commit(5);
            wal.writer.appended_bytes()
        };
        member.record_commit(target, 5);
        let error = committer.commit(&member, target).expect_err("drain write must fail");
        assert!(member.health().is_poisoned());
        // `written` advanced (parked committers must be released), but the poison makes
        // a later commit against the same covered target error instead of acking.
        assert!(member.written.load(Ordering::Acquire) >= target);
        let again = committer.commit(&member, target).expect_err("sticky failure");
        assert_eq!(again.kind(), error.kind());
        // The failed bytes were never credited as durable.
        member.record_ack(5);
        assert_eq!(member.item_counts(), (5, 0));
    }

    #[test]
    fn sweep_skips_poisoned_members_and_never_retries_a_failed_sync() {
        let token = format!("gss-group-{}-syncfail", std::process::id());
        let _guard = crate::pager::faults::install(
            crate::pager::faults::FaultPlan::parse("sync_data:eio@1")
                .expect("parse plan")
                .with_path_token(&token),
        );
        let (member, _log) = member("syncfail");
        // Zero knob: every led round sweeps inline, so the injected sync fault
        // surfaces on the first commit.
        let committer = GroupCommitter::new(GroupCommit { max_delay_us: 0, max_bytes: 0 });
        committer.register(&member);
        let target = {
            let mut wal = member.wal.lock();
            wal.writer.log_commit(1);
            wal.writer.appended_bytes()
        };
        committer.commit(&member, target).expect_err("fdatasync must fail");
        assert!(member.health().is_poisoned());
        assert_eq!(member.synced.load(Ordering::Acquire), 0, "failed sync credits nothing");
        let (_, _, fsyncs_before) = member.counters();
        // A later sweep must skip the poisoned member entirely (no fsync retry).
        committer.shared.sweep().expect("sweep skips poisoned members");
        let (_, _, fsyncs_after) = member.counters();
        assert_eq!(fsyncs_after, fsyncs_before, "no sync_data retry against a poisoned log");
    }

    #[test]
    fn durable_items_track_the_drained_prefix() {
        let (member, _log) = member("durable");
        let committer = GroupCommitter::new(GroupCommit::default());
        committer.register(&member);
        let target = {
            let mut wal = member.wal.lock();
            wal.writer.log_commit(4);
            wal.writer.appended_bytes()
        };
        member.record_commit(target, 4);
        member.record_ack(4);
        assert_eq!(member.item_counts(), (4, 0), "nothing durable before the drain");
        committer.commit(&member, target).expect("commit");
        assert_eq!(member.item_counts(), (4, 4), "drained commit frames are durable");
    }

    #[test]
    fn exclusive_token_blocks_new_rounds() {
        let (member, _log) = member("exclusive");
        let committer = GroupCommitter::new(GroupCommit::default());
        committer.register(&member);
        {
            let mut wal = member.wal.lock();
            wal.writer.log_commit(1);
        }
        let guard = committer.exclusive(&member);
        assert!(*unpoison(member.group_token.lock()));
        drop(guard);
        assert!(!*unpoison(member.group_token.lock()));
        // Committing after release works normally.
        let target = member.wal.lock().writer.appended_bytes();
        committer.commit(&member, target).expect("commit");
    }
}
