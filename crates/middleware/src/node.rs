//! One process thread, hosting the same [`ProcessHost`] the simulator
//! drives: application + MDCD engine + stores + ack bookkeeping.
//!
//! The thread is a driver in the sense of
//! [`synergy::system::host`]: it feeds [`HostEvent`]s from its input
//! channel and interprets the returned [`HostAction`]s against the real
//! transport. The TB runtime stays outside the host (the host's own TB slot
//! is `None` here) and forwards its blocking/commit notifications through
//! [`ProcessHost::engine_event`].
//!
//! The runner is generic over its [`Transport`] and its TB runtime's
//! [`Stable`] backend: the cluster node runs it over the reactor wire and
//! an on-disk store, tests over in-memory carriers and stores.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use synergy::app::{Application, CounterApp};
use synergy::payload::CheckpointPayload;
use synergy::system::recovery::volatile_copy_payload;
use synergy::system::{HostAction, HostEvent, ProcessHost, Topology, P1ACT, P1SDW};
use synergy::Scheme;
use synergy_des::SimTime;
use synergy_mdcd::{EngineSnapshot, Event, ProcessRole};
use synergy_net::{Envelope, ProcessId, Transport};
use synergy_storage::Stable;

use crate::tb_runtime::{TbEffect, TbRuntime};

/// How often an idle node loop wakes to retry stable writes that a
/// failing backend left pending.
const STABLE_RETRY_PERIOD: Duration = Duration::from_millis(50);

/// Everything a node thread can receive on its (single) input channel:
/// transport deliveries forwarded by its network pump, and control commands.
#[derive(Debug)]
pub enum NodeInput {
    /// An envelope delivered by the transport.
    Net(Envelope),
    /// A control command.
    Cmd(NodeCmd),
}

/// Commands a node thread accepts.
#[derive(Debug)]
pub enum NodeCmd {
    /// Produce one application message.
    Produce {
        /// Whether the message is external (acceptance-tested).
        external: bool,
    },
    /// Commanded TB: begin one stable-checkpoint round now. Replies whether
    /// a stable write is in flight afterwards.
    BeginCkpt(Sender<bool>),
    /// Commanded TB: end the round's blocking period and commit. Replies
    /// with the newest committed epoch.
    CommitCkpt(Sender<Option<u64>>),
    /// Global rollback to the newest stable checkpoint at or before the
    /// epoch line, re-sending saved unacknowledged messages (paper §2.2).
    Rollback {
        /// The epoch line (minimum committed epoch across the cluster).
        epoch: u64,
        /// Where to report the outcome.
        reply: Sender<RollbackOutcome>,
    },
    /// Report live status. Because commands and deliveries share one FIFO
    /// channel, a `Status` round-trip doubles as a barrier: everything sent
    /// to the node before it has been processed once the reply arrives.
    Status(Sender<NodeStatus>),
    /// Unmasked-regime hook (Byzantine-lite): flip value bytes inside the
    /// latest committed stable checkpoint, re-encoding it behind a valid
    /// CRC. Replies with the corrupted epoch, or `None` when the store is
    /// empty or the backend cannot rewrite committed history.
    Corrupt(Sender<Option<u64>>),
    /// Stop the thread.
    Shutdown,
}

/// What a [`NodeCmd::Rollback`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RollbackOutcome {
    /// Epoch of the checkpoint the node restored, or `None` when nothing at
    /// or before the line was retained (node left untouched).
    pub restored_epoch: Option<u64>,
    /// Saved unacknowledged messages re-sent during recovery.
    pub resent: usize,
}

/// A live snapshot of one node.
#[derive(Clone, Debug)]
pub struct NodeStatus {
    /// The process.
    pub pid: ProcessId,
    /// Its current role.
    pub role: ProcessRole,
    /// The MDCD dirty bit.
    pub dirty: bool,
    /// Whether a shadow has been promoted.
    pub promoted: bool,
    /// Suppressed messages currently logged (shadow only).
    pub logged: usize,
    /// Volatile checkpoints established.
    pub ckpts: u64,
    /// Acceptance tests executed.
    pub at_runs: u64,
    /// Application messages delivered to the application.
    pub delivered: u64,
    /// Whether the node has halted (fail-stop: an active whose acceptance
    /// test failed).
    pub halted: bool,
    /// Stable checkpoints committed by the TB runtime (0 when disabled).
    pub stable_commits: u64,
    /// Epoch of the newest committed stable checkpoint, if any.
    pub stable_epoch: Option<u64>,
    /// Torn stable writes the store has recorded (including tears detected
    /// while reloading a durable store after a crash).
    pub torn_writes: u64,
    /// Retry attempts against a transiently failing stable backend.
    pub stable_retries: u64,
    /// Messages currently awaiting acknowledgment.
    pub unacked: usize,
}

/// Forwards transport deliveries for `pid` into the node's input channel so
/// the run loop has a single blocking receive. The pump thread exits when
/// either side hangs up (transport torn down or node gone).
pub fn spawn_net_pump(pid: ProcessId, net_rx: Receiver<Envelope>, input_tx: Sender<NodeInput>) {
    std::thread::Builder::new()
        .name(format!("synergy-node-{pid}-net"))
        .spawn(move || {
            while let Ok(env) = net_rx.recv() {
                if input_tx.send(NodeInput::Net(env)).is_err() {
                    break;
                }
            }
        })
        .expect("spawn net pump thread");
}

/// The node event loop: one [`ProcessHost`] driven from an input channel
/// against a real transport.
pub struct NodeRunner<T: Transport, S: Stable> {
    host: ProcessHost,
    net: Arc<T>,
    input_rx: Receiver<NodeInput>,
    started: std::time::Instant,
    halted: bool,
    tb: Option<TbRuntime<S>>,
    seed: u64,
}

impl<T: Transport, S: Stable> NodeRunner<T, S> {
    /// Builds a runner for `pid`. The caller owns endpoint registration and
    /// the delivery pump (see [`spawn_net_pump`]) as well as the TB
    /// runtime's backend; restoring a previously persisted checkpoint
    /// (process restart) happens afterwards via [`NodeCmd::Rollback`].
    pub fn new(
        pid: ProcessId,
        seed: u64,
        net: Arc<T>,
        input_rx: Receiver<NodeInput>,
        tb: Option<TbRuntime<S>>,
    ) -> Self {
        let (role, node) = match pid {
            p if p == P1ACT => (ProcessRole::Active, 0),
            p if p == P1SDW => (ProcessRole::Shadow, 1),
            _ => (ProcessRole::Peer, 2),
        };
        // The TB layer runs outside the host in TbRuntime, so the host's
        // own TB slot stays empty; effects come back via engine_event.
        let mut host = ProcessHost::new(
            role,
            pid,
            node,
            Topology::canonical(),
            Scheme::Coordinated,
            CounterApp::new(seed ^ 0xA5A5),
            None,
        );
        // No trace consumer exists in the live runtime; skip building
        // Record actions at the source.
        host.set_tracing(false);
        NodeRunner {
            host,
            net,
            input_rx,
            started: std::time::Instant::now(),
            halted: false,
            tb,
            seed,
        }
    }

    /// Runs the loop until shutdown or until every input sender is gone.
    pub fn run(mut self) {
        loop {
            match self.input_rx.recv_timeout(STABLE_RETRY_PERIOD) {
                Ok(NodeInput::Net(env)) => self.on_envelope(env),
                Ok(NodeInput::Cmd(NodeCmd::Shutdown)) | Err(RecvTimeoutError::Disconnected) => {
                    break
                }
                Ok(NodeInput::Cmd(cmd)) => self.on_cmd(cmd),
                Err(RecvTimeoutError::Timeout) => {}
            }
            self.retry_pending_stable();
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    fn current_payload(&mut self) -> CheckpointPayload {
        let now = self.now();
        self.host.current_payload(now)
    }

    fn volatile_payload(&self) -> Option<CheckpointPayload> {
        self.host
            .volatile
            .latest()
            .map(|c| volatile_copy_payload(c, &self.host.acks, &self.host.recv_log))
    }

    /// Retries stable operations a failing backend left pending, so disk
    /// catches up with the engine between commanded rounds.
    fn retry_pending_stable(&mut self) {
        let Some(tb) = self.tb.as_mut().filter(|tb| tb.stable_pending()) else {
            return;
        };
        let effects = tb.retry_stable();
        self.apply_tb_effects(effects);
    }

    /// Retries failed stable operations a bounded number of times — the
    /// flaky-disk masking loop. A backend that keeps failing past the budget
    /// leaves the runtime pending; the orchestrator sees the lag via
    /// `stable_epoch` and aborts the campaign rather than hanging.
    fn retry_stable_bounded(tb: &mut TbRuntime<S>) -> Vec<TbEffect> {
        const STABLE_RETRY_BUDGET: u32 = 8;
        let mut effects = Vec::new();
        let mut attempts = 0;
        while tb.stable_pending() && attempts < STABLE_RETRY_BUDGET {
            effects.extend(tb.retry_stable());
            attempts += 1;
            if tb.stable_pending() {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        effects
    }

    fn apply_tb_effects(&mut self, effects: Vec<TbEffect>) {
        let now = self.now();
        for e in effects {
            match e {
                TbEffect::BlockingStarted => {
                    let actions = self.host.engine_event(Event::BlockingStarted, now);
                    self.apply(actions);
                }
                TbEffect::Committed(ndc) => {
                    let mut actions = self
                        .host
                        .engine_event(Event::StableCheckpointCommitted(ndc), now);
                    actions.extend(self.host.engine_event(Event::BlockingEnded, now));
                    self.apply(actions);
                }
            }
        }
    }

    fn on_envelope(&mut self, env: Envelope) {
        if self.halted {
            return;
        }
        let bit_before = self.host.engine.checkpoint_bit();
        let actions = self.host.handle(HostEvent::Deliver(env), self.now());
        self.apply(actions);
        if bit_before && !self.host.engine.checkpoint_bit() {
            if let Some(mut tb) = self.tb.take() {
                let current = self.current_payload();
                tb.dirty_cleared(&|| current.clone());
                self.tb = Some(tb);
            }
        }
    }

    /// Hardware-error recovery: restore the node from the stable checkpoint
    /// the epoch line selects and re-send its saved unacknowledged messages.
    fn rollback_to_line(&mut self, epoch: u64) -> RollbackOutcome {
        let Some(mut tb) = self.tb.take() else {
            return RollbackOutcome {
                restored_epoch: None,
                resent: 0,
            };
        };
        let restored = tb.rollback_to(epoch);
        self.tb = Some(tb);
        let payload = match restored.as_ref() {
            Some(ckpt) => match CheckpointPayload::from_checkpoint(ckpt) {
                Ok(p) => p,
                Err(_) => {
                    return RollbackOutcome {
                        restored_epoch: None,
                        resent: 0,
                    }
                }
            },
            // No committed checkpoint at or below the line: the epoch line
            // is 0 and the mission restarts from the initial state, exactly
            // as the simulator's hardware recovery does.
            None => CheckpointPayload::new(
                CounterApp::new(self.seed ^ 0xA5A5).snapshot(),
                EngineSnapshot::default(),
                Vec::new(),
                Vec::new(),
                SimTime::ZERO,
            ),
        };
        self.host.restore_from_payload(&payload);
        let mut resent = 0;
        for env in self.host.acks.unacked_shared() {
            self.net.send((*env).clone());
            resent += 1;
        }
        RollbackOutcome {
            restored_epoch: restored.map(|c| c.seq()),
            resent,
        }
    }

    fn on_cmd(&mut self, cmd: NodeCmd) {
        match cmd {
            NodeCmd::Produce { external } => {
                if self.halted {
                    return;
                }
                let actions = self
                    .host
                    .handle(HostEvent::Produce { external }, self.now());
                self.apply(actions);
            }
            NodeCmd::BeginCkpt(tx) => {
                if let Some(mut tb) = self.tb.take() {
                    let dirty = self.host.engine.checkpoint_bit();
                    let current = self.current_payload();
                    let vol = self.volatile_payload();
                    let mut effects =
                        tb.begin_checkpoint(dirty, &|| current.clone(), &|| vol.clone());
                    if tb.stable_pending() {
                        effects.extend(Self::retry_stable_bounded(&mut tb));
                    }
                    let writing = tb.is_writing();
                    self.tb = Some(tb);
                    self.apply_tb_effects(effects);
                    let _ = tx.send(writing);
                } else {
                    let _ = tx.send(false);
                }
            }
            NodeCmd::CommitCkpt(tx) => {
                if let Some(mut tb) = self.tb.take() {
                    let mut effects = tb.commit_checkpoint();
                    if tb.stable_pending() {
                        effects.extend(Self::retry_stable_bounded(&mut tb));
                    }
                    let epoch = tb.latest_epoch();
                    self.tb = Some(tb);
                    self.apply_tb_effects(effects);
                    let _ = tx.send(epoch);
                } else {
                    let _ = tx.send(None);
                }
            }
            NodeCmd::Rollback { epoch, reply } => {
                let outcome = self.rollback_to_line(epoch);
                let _ = reply.send(outcome);
            }
            NodeCmd::Corrupt(tx) => {
                let epoch = self
                    .tb
                    .as_mut()
                    .and_then(TbRuntime::corrupt_latest_checkpoint);
                let _ = tx.send(epoch);
            }
            NodeCmd::Status(tx) => {
                let snap = self.host.engine.snapshot();
                let _ = tx.send(NodeStatus {
                    pid: self.host.pid,
                    role: self.host.engine.role(),
                    dirty: self.host.engine.dirty_bit(),
                    promoted: snap.promoted,
                    logged: snap.log.len(),
                    ckpts: self.host.volatile_seq,
                    at_runs: self.host.engine.at_runs(),
                    delivered: self.host.delivered,
                    halted: self.halted,
                    stable_commits: self.tb.as_ref().map_or(0, TbRuntime::commits),
                    stable_epoch: self.tb.as_ref().and_then(TbRuntime::latest_epoch),
                    torn_writes: self.tb.as_ref().map_or(0, TbRuntime::torn_writes),
                    stable_retries: self.tb.as_ref().map_or(0, TbRuntime::stable_retries),
                    unacked: self.host.acks.len(),
                });
            }
            NodeCmd::Shutdown => unreachable!("handled by the select loop"),
        }
    }

    fn apply(&mut self, actions: Vec<HostAction>) {
        for action in actions {
            match action {
                HostAction::Send(env) | HostAction::SendAck(env) => self.net.send(env),
                // Fail-stop: an active whose acceptance test failed halts.
                HostAction::SoftwareErrorDetected => {
                    self.halted = self.host.pid == self.host.topology.active;
                }
                // Deliveries, checkpoints and acceptance tests are already
                // counted by the host; trace lines and TB scheduling have
                // no driver-side effect here (the host runs without an
                // embedded TB engine).
                HostAction::Delivered
                | HostAction::AtPerformed { .. }
                | HostAction::RegimeCorrupted { .. }
                | HostAction::VolatileSaved { .. }
                | HostAction::WriteThroughCommitted
                | HostAction::StableWriteBegun { .. }
                | HostAction::StableReplaced
                | HostAction::StableCommitted { .. }
                | HostAction::BlockingStarted { .. }
                | HostAction::ScheduleTimer { .. }
                | HostAction::ResyncRequested
                | HostAction::Record { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Mutex;

    use synergy::system::P2;
    use synergy_clocks::SyncParams;
    use synergy_des::SimDuration;
    use synergy_net::Endpoint;
    use synergy_storage::StableStore;
    use synergy_tb::{TbConfig, TbVariant};

    use super::*;

    /// An in-memory switch: hands each envelope straight to the
    /// destination node's input channel, or drops it while `cut` is set.
    #[derive(Default)]
    struct Switch {
        inputs: Mutex<HashMap<Endpoint, Sender<NodeInput>>>,
        cut: AtomicBool,
    }

    impl Transport for Switch {
        fn send(&self, envelope: Envelope) {
            if self.cut.load(Ordering::SeqCst) {
                return;
            }
            if let Some(input) = self.inputs.lock().unwrap().get(&envelope.to) {
                let _ = input.send(NodeInput::Net(envelope));
            }
        }
    }

    /// Sends one command and waits for its reply. Inputs share one FIFO
    /// channel, so the reply also proves every earlier input was handled.
    fn ask<R>(node: &Sender<NodeInput>, cmd: impl FnOnce(Sender<R>) -> NodeCmd) -> R {
        let (tx, rx) = channel();
        node.send(NodeInput::Cmd(cmd(tx))).unwrap();
        rx.recv().unwrap()
    }

    #[test]
    fn runner_loop_dirties_commits_and_rolls_back() {
        let config = TbConfig::new(
            TbVariant::Adapted,
            SimDuration::from_millis(1000),
            SyncParams::new(SimDuration::from_micros(500), 0.0),
            SimDuration::from_micros(50),
            SimDuration::from_millis(2),
        );
        let net = Arc::new(Switch::default());
        let mut nodes = HashMap::new();
        let mut threads = Vec::new();
        for pid in [P1ACT, P1SDW, P2] {
            let (input, input_rx) = channel();
            let endpoint = Endpoint::Process(pid);
            net.inputs.lock().unwrap().insert(endpoint, input.clone());
            let tb = TbRuntime::commanded(config, StableStore::new());
            let runner = NodeRunner::new(pid, 11, Arc::clone(&net), input_rx, Some(tb));
            threads.push(std::thread::spawn(move || runner.run()));
            nodes.insert(pid, input);
        }
        let produce = |pid: ProcessId| {
            let cmd = NodeCmd::Produce { external: false };
            nodes[&pid].send(NodeInput::Cmd(cmd)).unwrap();
        };
        let status = |pid| ask(&nodes[&pid], NodeCmd::Status);

        // A clean P2 broadcasts to both replicas of component 1 over a cut
        // wire: the two copies stay unacked.
        net.cut.store(true, Ordering::SeqCst);
        produce(P2);
        assert_eq!(status(P2).unacked, 2);
        net.cut.store(false, Ordering::SeqCst);

        // Produce: the active's internal message dirties P2, which takes a
        // Type-1 volatile checkpoint (saving its unacked copies) before
        // delivering it.
        produce(P1ACT);
        produce(P1SDW);
        status(P1ACT);
        let p2 = status(P2);
        assert!(p2.dirty, "P2 contaminated by the active's message");
        assert_eq!(p2.ckpts, 1, "Type-1 checkpoint taken");
        assert_eq!(p2.delivered, 1);

        // BeginCkpt/CommitCkpt: every node commits epoch 1; the dirty P2
        // persists its volatile checkpoint, unacked copies included.
        for pid in [P1ACT, P1SDW, P2] {
            assert!(ask(&nodes[&pid], NodeCmd::BeginCkpt), "{pid} writes");
        }
        for pid in [P1ACT, P1SDW, P2] {
            assert_eq!(ask(&nodes[&pid], NodeCmd::CommitCkpt), Some(1));
            assert_eq!(status(pid).stable_epoch, Some(1));
        }

        // Rollback: P2 restores epoch 1 and re-sends both saved copies,
        // which now reach the replicas and are acked.
        let outcome = ask(&nodes[&P2], |reply| NodeCmd::Rollback { epoch: 1, reply });
        assert_eq!(
            outcome,
            RollbackOutcome {
                restored_epoch: Some(1),
                resent: 2,
            }
        );
        assert_eq!(status(P1ACT).delivered, 1);
        assert_eq!(status(P1SDW).delivered, 1);
        assert_eq!(status(P2).unacked, 0);

        for input in nodes.values() {
            input.send(NodeInput::Cmd(NodeCmd::Shutdown)).unwrap();
        }
        for thread in threads {
            thread.join().unwrap();
        }
    }
}
