//! Commanded adapted-TB checkpointing for the live runtime.
//!
//! The paper's concluding remarks plan to "incorporate the
//! protocol-coordination scheme into the GSU Middleware"; this module does
//! that for the live cluster: each node owns a [`TbEngine`], persists
//! coordinated checkpoints into a [`Stable`] store, and bridges the blocking
//! periods into the MDCD engine exactly like the simulator driver does.
//!
//! Rounds are *commanded*: an external coordinator (the cluster
//! orchestrator) decides when checkpoint rounds begin
//! ([`begin_checkpoint`](TbRuntime::begin_checkpoint)) and commit
//! ([`commit_checkpoint`](TbRuntime::commit_checkpoint)), which makes a
//! distributed mission deterministic enough to compare against a simulator
//! run. Deadline bookkeeping stays inside the engine (each commanded round
//! is fed as its own timer expiry on the engine's deadline grid), so `δ`
//! and `ρ` are configuration inputs to the blocking-period formula rather
//! than measured properties. Acknowledgment tracking is delegated to the
//! node's host, and the saved unacked set is its ack tracker contents at
//! write time.

use synergy::payload::CheckpointPayload;
use synergy_net::CkptSeqNo;
use synergy_storage::{Checkpoint, Stable};
use synergy_tb::{Action as TbAction, ContentsChoice, Event as TbEvent, TbConfig, TbEngine};

/// Commanded TB state for one node, over any [`Stable`] backend.
pub struct TbRuntime<S: Stable> {
    engine: TbEngine,
    pub(crate) stable: S,
    commits: u64,
    replacements: u64,
    /// Stable operations that failed (transient I/O) and await retry, in
    /// order. The engine's view (ndc, blocking state) advances when its
    /// actions are handed out, so a failed store operation must eventually
    /// succeed for disk and engine to agree again; [`retry_stable`]
    /// (driven by the node loop) is how it does.
    pending: Vec<PendingStable>,
    stable_retries: u64,
}

/// A stable-store operation waiting to be retried.
enum PendingStable {
    /// `begin_write` failed; retry with this checkpoint.
    Begin(Checkpoint),
    /// `commit_write` failed; the in-flight write (or, if the begin is also
    /// pending, the checkpoint queued before this) still needs committing.
    Commit(CkptSeqNo),
}

/// What the node loop must do after a TB transition.
pub enum TbEffect {
    /// A blocking period started: forward `BlockingStarted` to MDCD.
    BlockingStarted,
    /// A blocking period ended: forward `StableCheckpointCommitted(ndc)`
    /// and `BlockingEnded` to MDCD.
    Committed(CkptSeqNo),
}

impl<S: Stable> TbRuntime<S> {
    /// A runtime over `stable`: nothing fires on its own; the caller drives
    /// rounds with [`begin_checkpoint`](Self::begin_checkpoint) and
    /// [`commit_checkpoint`](Self::commit_checkpoint).
    pub fn commanded(config: TbConfig, stable: S) -> Self {
        let mut engine = TbEngine::new(config);
        // The engine's first deadline is its grid origin; the commanded
        // rounds feed that grid directly, so no timer is armed from it.
        let _ = engine.start();
        TbRuntime {
            engine,
            stable,
            commits: 0,
            replacements: 0,
            pending: Vec::new(),
            stable_retries: 0,
        }
    }

    /// Stable checkpoints committed so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// In-flight content replacements so far.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Sequence number (epoch) of the newest committed stable checkpoint.
    pub fn latest_epoch(&self) -> Option<u64> {
        self.stable.latest_seq()
    }

    /// Torn writes recorded by the store — for a durable backend this
    /// includes tears detected when reloading after a real crash.
    pub fn torn_writes(&self) -> u64 {
        self.stable.stats().torn_writes
    }

    /// Whether a stable write is currently in flight.
    pub fn is_writing(&self) -> bool {
        self.stable.is_writing()
    }

    /// Whether any stable operation failed and awaits retry.
    pub fn stable_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Retry attempts performed against a failing backend so far.
    pub fn stable_retries(&self) -> u64 {
        self.stable_retries
    }

    /// Retries queued stable operations in order, stopping at the first
    /// operation that fails again. Returns the MDCD effects of any commit
    /// that succeeded on retry.
    pub fn retry_stable(&mut self) -> Vec<TbEffect> {
        let mut effects = Vec::new();
        while !self.pending.is_empty() {
            self.stable_retries += 1;
            match &self.pending[0] {
                PendingStable::Begin(ckpt) => {
                    let ckpt = ckpt.clone();
                    if self.stable.begin_write(ckpt).is_err() {
                        break;
                    }
                    self.pending.remove(0);
                }
                PendingStable::Commit(ndc) => {
                    let ndc = *ndc;
                    if self.stable.commit_write().is_err() {
                        break;
                    }
                    self.commits += 1;
                    effects.push(TbEffect::Committed(ndc));
                    self.pending.remove(0);
                }
            }
        }
        effects
    }

    /// Starts one checkpoint round *now*, as if the node's
    /// timer expired exactly on its deadline grid. `dirty` is the MDCD
    /// checkpoint-relevant bit; `payload` builds the current-state
    /// checkpoint payload on demand; `volatile_copy` fetches the most
    /// recent volatile checkpoint payload. Returns the MDCD effects;
    /// whether a write actually began is visible via
    /// [`is_writing`](Self::is_writing). Ignored while a round is already
    /// blocking.
    pub fn begin_checkpoint(
        &mut self,
        dirty: bool,
        payload: &dyn Fn() -> CheckpointPayload,
        volatile_copy: &dyn Fn() -> Option<CheckpointPayload>,
    ) -> Vec<TbEffect> {
        let mut effects = Vec::new();
        if self.engine.is_blocking() {
            return effects;
        }
        // Every node is fed its exact grid point, so the whole cluster
        // agrees on epoch numbering without measuring clocks.
        let now_local = self.engine.next_deadline();
        let actions = self
            .engine
            .handle(TbEvent::TimerExpired { now_local, dirty });
        for a in actions {
            match a {
                TbAction::BeginStableWrite { contents, .. } => {
                    let p = match contents {
                        ContentsChoice::CurrentState => payload(),
                        ContentsChoice::VolatileCopy => volatile_copy().unwrap_or_else(payload),
                    };
                    let seq = self.engine.ndc().0 + 1;
                    if let Ok(ckpt) = p.into_checkpoint(seq, "stable") {
                        // A transient backend failure (injected fsync fault,
                        // flaky disk) must not be swallowed: queue the write
                        // for retry so disk catches up with the engine.
                        if self.stable.begin_write(ckpt.clone()).is_err() {
                            self.pending.push(PendingStable::Begin(ckpt));
                        }
                    }
                }
                TbAction::StartBlocking { .. } => effects.push(TbEffect::BlockingStarted),
                // The commanded grid is synthetic: the next round arrives as
                // a command, and there are no clocks to resynchronize.
                TbAction::ScheduleTimer { .. }
                | TbAction::RequestResync
                | TbAction::ReplaceWithCurrentState
                | TbAction::CommitStableWrite { .. } => {}
            }
        }
        effects
    }

    /// Ends the current round's blocking period and commits
    /// the in-flight stable write. Ignored when no round is blocking.
    pub fn commit_checkpoint(&mut self) -> Vec<TbEffect> {
        let mut effects = Vec::new();
        if !self.engine.is_blocking() {
            return effects;
        }
        let actions = self.engine.handle(TbEvent::BlockingElapsed);
        for a in actions {
            if let TbAction::CommitStableWrite { ndc } = a {
                // The Committed effect is what tells MDCD the epoch is
                // durable; emitting it for a failed commit would let the
                // engine's epoch run ahead of the disk. Defer it to a
                // successful retry instead.
                if !self.pending.is_empty() {
                    self.pending.push(PendingStable::Commit(ndc));
                } else if self.stable.commit_write().is_ok() {
                    self.commits += 1;
                    effects.push(TbEffect::Committed(ndc));
                } else {
                    self.pending.push(PendingStable::Commit(ndc));
                }
            }
        }
        effects
    }

    /// Global rollback: aborts any in-flight write, selects the newest
    /// committed checkpoint with sequence number `<= epoch` (the epoch
    /// line), and restarts the engine from it. Returns the selected
    /// checkpoint, or `None` when nothing at or before `epoch` is retained —
    /// in which case the engine still restarts, from sequence number 0.
    pub fn rollback_to(&mut self, epoch: u64) -> Option<Checkpoint> {
        self.stable.abort_write();
        // Global recovery supersedes whatever write was pending retry.
        self.pending.clear();
        let ck = self.stable.latest_at_or_before_shared(epoch);
        let ndc = CkptSeqNo(ck.as_ref().map_or(0, Checkpoint::seq));
        let now_local = self.engine.next_deadline();
        let _ = self.engine.handle(TbEvent::Restarted { now_local, ndc });
        ck
    }

    /// The MDCD dirty bit was cleared (a `passed_AT` matched) — possibly
    /// inside the blocking period.
    pub fn dirty_cleared(&mut self, payload: &dyn Fn() -> CheckpointPayload) {
        let actions = self.engine.handle(TbEvent::DirtyCleared);
        for a in actions {
            if let TbAction::ReplaceWithCurrentState = a {
                let seq = self.engine.ndc().0 + 1;
                if let Ok(ckpt) = payload().into_checkpoint(seq, "stable-replaced") {
                    // If the round's begin itself is awaiting retry there is
                    // no in-flight write to replace; swap the queued
                    // contents instead so the retry writes the fresh state.
                    if let Some(PendingStable::Begin(queued)) = self.pending.first_mut() {
                        *queued = ckpt;
                        self.replacements += 1;
                    } else if self.stable.replace_in_progress(ckpt).is_ok() {
                        self.replacements += 1;
                    }
                }
            }
        }
    }

    /// The latest committed stable checkpoint, if any (used by recovery
    /// tooling and tests).
    #[allow(dead_code)]
    pub fn latest(&self) -> Option<CheckpointPayload> {
        self.stable
            .latest_shared()
            .and_then(|c| CheckpointPayload::from_checkpoint(&c).ok())
    }

    /// Byzantine-lite injection (unmasked-regime axis 4): flips value bytes
    /// inside the latest *committed* checkpoint and re-encodes the record in
    /// place, so its CRC — and every integrity check between here and the
    /// next recovery — remains valid. Returns the corrupted epoch, or `None`
    /// when nothing is committed, the payload does not decode, or the
    /// backend cannot rewrite committed history (delta chains).
    pub fn corrupt_latest_checkpoint(&mut self) -> Option<u64> {
        let ckpt = self.stable.latest_shared()?;
        let corrupted = synergy::regime::corrupt_checkpoint_value(&ckpt)?;
        self.stable.replace_latest(corrupted).then(|| ckpt.seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_clocks::SyncParams;
    use synergy_des::{SimDuration, SimTime};
    use synergy_mdcd::EngineSnapshot;
    use synergy_storage::StableStore;
    use synergy_tb::TbVariant;

    fn config(interval_ms: u64) -> TbConfig {
        TbConfig::new(
            TbVariant::Adapted,
            SimDuration::from_millis(interval_ms),
            SyncParams::new(SimDuration::from_micros(100), 0.0),
            SimDuration::from_micros(50),
            SimDuration::from_micros(500),
        )
    }

    fn payload() -> CheckpointPayload {
        CheckpointPayload::new(
            vec![1, 2, 3],
            EngineSnapshot::default(),
            Vec::new(),
            Vec::new(),
            SimTime::ZERO,
        )
    }

    fn volatile() -> CheckpointPayload {
        CheckpointPayload::new(
            vec![9, 9],
            EngineSnapshot::default(),
            Vec::new(),
            Vec::new(),
            SimTime::from_nanos(42),
        )
    }

    #[test]
    fn dirty_timer_copies_volatile_checkpoint() {
        let mut rt = TbRuntime::commanded(config(10), StableStore::new());
        rt.begin_checkpoint(true, &payload, &|| Some(volatile()));
        rt.commit_checkpoint();
        let latest = rt.latest().expect("committed");
        assert_eq!(
            latest.app,
            volatile().app,
            "dirty process persists the volatile copy"
        );
        assert_eq!(latest.state_time(), SimTime::from_nanos(42));
    }

    #[test]
    fn dirty_cleared_replaces_in_flight_contents() {
        let mut rt = TbRuntime::commanded(config(10), StableStore::new());
        // The round begins dirty, writing the volatile copy...
        rt.begin_checkpoint(true, &payload, &|| Some(volatile()));
        assert!(rt.is_writing());
        // ...and a passed_AT inside the blocking period swaps in the
        // current state.
        rt.dirty_cleared(&payload);
        assert_eq!(rt.replacements(), 1, "in-flight write must be replaced");
        rt.commit_checkpoint();
        let latest = rt.latest().expect("committed");
        assert_eq!(latest.app, payload().app, "current state won");
    }

    #[test]
    fn commanded_rounds_commit_in_lockstep() {
        let mut rt = TbRuntime::commanded(config(1000), StableStore::new());
        for round in 1..=3u64 {
            let began = rt.begin_checkpoint(false, &payload, &|| None);
            assert!(began.iter().any(|e| matches!(e, TbEffect::BlockingStarted)));
            assert!(rt.is_writing());
            // Re-beginning mid-round is ignored, not an engine panic.
            assert!(rt.begin_checkpoint(false, &payload, &|| None).is_empty());
            let committed = rt.commit_checkpoint();
            assert!(committed
                .iter()
                .any(|e| matches!(e, TbEffect::Committed(ndc) if ndc.0 == round)));
            assert_eq!(rt.latest_epoch(), Some(round));
        }
        assert_eq!(rt.commits(), 3);
        // Committing with no round open is ignored.
        assert!(rt.commit_checkpoint().is_empty());
    }

    #[test]
    fn injected_stable_faults_are_retried_not_swallowed() {
        use synergy_storage::{DiskFault, DiskFaultPlan, DiskOp, FaultyStable};
        let plan = DiskFaultPlan {
            faults: vec![
                DiskFault {
                    seq: 1,
                    op: DiskOp::Begin,
                    times: 1,
                },
                DiskFault {
                    seq: 2,
                    op: DiskOp::Commit,
                    times: 1,
                },
            ],
        };
        let mut rt =
            TbRuntime::commanded(config(1000), FaultyStable::new(StableStore::new(), plan));
        // Round 1: the begin fails; a retry lands it before the commit.
        rt.begin_checkpoint(false, &payload, &|| None);
        assert!(!rt.is_writing(), "failed begin left nothing in flight");
        assert!(rt.stable_pending());
        assert!(rt.retry_stable().is_empty(), "begin retry emits no effects");
        assert!(rt.is_writing());
        let committed = rt.commit_checkpoint();
        assert!(committed
            .iter()
            .any(|e| matches!(e, TbEffect::Committed(ndc) if ndc.0 == 1)));
        // Round 2: the commit fails; the Committed effect must be deferred
        // to the successful retry, never emitted for a write that is not
        // durable.
        rt.begin_checkpoint(false, &payload, &|| None);
        let committed = rt.commit_checkpoint();
        assert!(committed.is_empty(), "no Committed effect while disk lags");
        assert!(rt.stable_pending());
        let retried = rt.retry_stable();
        assert!(retried
            .iter()
            .any(|e| matches!(e, TbEffect::Committed(ndc) if ndc.0 == 2)));
        assert!(!rt.stable_pending());
        assert_eq!(rt.latest_epoch(), Some(2));
        assert_eq!(rt.commits(), 2);
        assert!(rt.stable_retries() >= 2);
    }

    #[test]
    fn rollback_discards_pending_stable_operations() {
        use synergy_storage::{DiskFault, DiskFaultPlan, DiskOp, FaultyStable};
        let plan = DiskFaultPlan {
            faults: vec![DiskFault {
                seq: 2,
                op: DiskOp::Begin,
                times: 99,
            }],
        };
        let mut rt =
            TbRuntime::commanded(config(1000), FaultyStable::new(StableStore::new(), plan));
        rt.begin_checkpoint(false, &payload, &|| None);
        rt.commit_checkpoint();
        // Epoch 2's begin fails persistently; global recovery supersedes it.
        rt.begin_checkpoint(false, &payload, &|| None);
        assert!(rt.stable_pending());
        let ck = rt.rollback_to(1).expect("epoch 1 retained");
        assert_eq!(ck.seq(), 1);
        assert!(!rt.stable_pending(), "rollback clears the retry queue");
    }

    #[test]
    fn commanded_runtime_runs_unchanged_over_the_delta_chain_store() {
        use synergy_archive::{ChainRecord, ChainWalker, DeltaStable, StableHistory};
        let store = DeltaStable::open(StableStore::new(), 4);
        let mut rt = TbRuntime::commanded(config(1000), store);
        for round in 1..=6u64 {
            let dirty = round % 2 == 0;
            rt.begin_checkpoint(dirty, &payload, &|| Some(payload()));
            // Replace mid-round on even (dirty) epochs: the delta layer must
            // re-diff against the same base, exactly like a plain store
            // swaps bytes.
            if dirty {
                rt.dirty_cleared(&payload);
            }
            let committed = rt.commit_checkpoint();
            assert!(committed
                .iter()
                .any(|e| matches!(e, TbEffect::Committed(ndc) if ndc.0 == round)));
        }
        assert_eq!(rt.commits(), 6);
        assert_eq!(rt.replacements(), 3);
        let stats = rt.stable.delta_stats();
        assert_eq!(stats.full_records, 2, "k=4 over 6 commits");
        assert_eq!(stats.delta_records, 4);
        let latest = rt.latest().expect("committed");
        assert_eq!(latest.app, payload().app, "payload survives the chain");
        // Global rollback walks the chain transparently and the next round
        // continues from the restored epoch.
        let ck = rt.rollback_to(3).expect("epoch 3 retained");
        assert_eq!(ck.seq(), 3);
        assert_eq!(
            CheckpointPayload::from_checkpoint(&ck)
                .expect("decodes")
                .app,
            payload().app
        );
        rt.begin_checkpoint(false, &payload, &|| None);
        let committed = rt.commit_checkpoint();
        assert!(committed
            .iter()
            .any(|e| matches!(e, TbEffect::Committed(ndc) if ndc.0 == 4)));
        assert_eq!(rt.latest_epoch(), Some(4));
        // The chain the inner store actually holds replays byte-identically
        // to the live view, post-rollback seq reuse included.
        let mut walker = ChainWalker::new();
        let mut replayed = None;
        for rec in rt.stable.inner().committed_records() {
            let chain: ChainRecord =
                synergy_codec::from_bytes(&rec.shared_data()).expect("chain record decodes");
            if let Some(image) = walker.feed(rec.seq(), &chain) {
                replayed = Some(image);
            }
        }
        assert_eq!(walker.orphans(), 0);
        assert_eq!(
            replayed.expect("chain replays"),
            rt.stable.latest_shared().expect("committed").shared_data(),
        );
    }

    #[test]
    fn commanded_rollback_selects_epoch_line_and_restarts() {
        let mut rt = TbRuntime::commanded(config(1000), StableStore::new());
        for _ in 0..3 {
            rt.begin_checkpoint(false, &payload, &|| None);
            rt.commit_checkpoint();
        }
        // A fourth round begins but the node "crashes" before commit.
        rt.begin_checkpoint(false, &payload, &|| None);
        assert!(rt.is_writing());
        let ck = rt.rollback_to(2).expect("epoch 2 retained");
        assert_eq!(ck.seq(), 2, "newest checkpoint at or before the line");
        assert!(!rt.is_writing(), "in-flight write aborted by rollback");
        // The next round continues the sequence from the restored epoch.
        rt.begin_checkpoint(false, &payload, &|| None);
        let committed = rt.commit_checkpoint();
        assert!(committed
            .iter()
            .any(|e| matches!(e, TbEffect::Committed(ndc) if ndc.0 == 3)));
        assert_eq!(rt.rollback_to(0), None, "epoch 0 retains nothing");
    }
}
