//! One cluster node process: a [`NodeRunner`] over the TCP data plane and
//! a durable on-disk stable store, driven by the orchestrator's control
//! connection.
//!
//! Boot sequence:
//!
//! 1. Open (or recover) the [`DiskStableStore`] in the node's data
//!    directory. A leftover in-flight temp file from a killed incarnation
//!    is detected here as a torn write; committed records are CRC-verified,
//!    and any record rejected by its CRC (bit-rot) is skipped in favour of
//!    the previous checkpoint. The store is then wrapped in a
//!    [`FaultyStable`] applying the campaign's disk-fault plan.
//! 2. Bind the [`ReactorTransport`] on an ephemeral port, wrap it in a
//!    [`ClusterWire`] (bounded backpressure retry) and a [`FaultyTransport`] applying the campaign's link-fault
//!    plan, and start the node event loop with a *commanded* [`TbRuntime`] —
//!    checkpoint rounds are driven by the orchestrator, not by wall-clock
//!    timers, which keeps a distributed mission deterministic.
//! 3. Connect back to the orchestrator, announce
//!    [`Hello`](CtrlReply::Hello) (data port + recovered epoch + torn-write
//!    and corrupt-record counts), then serve control commands in lockstep.
//!
//! Both fault plans default to inert, in which case the wrappers are
//! zero-overhead passthroughs; the orchestrator ships non-trivial plans as
//! hex-encoded codec values on the command line (`--chaos-link`,
//! `--chaos-disk`).
//!
//! A restarted node does **not** restore itself: per the paper's global
//! rollback, the *orchestrator* computes the epoch line across the cluster
//! and commands [`Rollback`](CtrlMsg::Rollback) on every node, the
//! restarted one included.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use synergy_archive::{
    ArchiveFaultPlan, ArchiveHandle, DeltaStable, DirObjectStore, FaultyObjectStore,
    MemObjectStore, ObjectStore, TieredStore,
};
use synergy_clocks::SyncParams;
use synergy_codec::Codec;
use synergy_des::SimDuration;
use synergy_middleware::{spawn_net_pump, NodeCmd, NodeInput, NodeRunner, NodeStatus, TbRuntime};
use synergy_net::{
    Endpoint, Envelope, FaultyTransport, LinkFaultPlan, MessageBody, MsgId, MsgSeqNo, ProcessId,
    ReactorTransport, SendError, Transport, WirePolicy,
};
use synergy_storage::{
    Checkpoint, DiskFaultPlan, DiskStableStore, FaultyStable, Stable, StableStats, StableWriteError,
};
use synergy_tb::{TbConfig, TbVariant};

use crate::ctrl::{recv_ctrl, send_ctrl, CtrlMsg, CtrlReply, WireStatus};

/// Boot parameters of one node process (parsed from `synergy-node` argv).
#[derive(Clone, Debug)]
pub struct NodeOpts {
    /// Process id: 1 = `P1act`, 2 = `P1sdw`, 3 = `P2`.
    pub pid: u32,
    /// Mission seed (must match the orchestrator's).
    pub seed: u64,
    /// Directory holding this node's stable storage.
    pub data_dir: PathBuf,
    /// `host:port` of the orchestrator's control listener.
    pub ctrl_addr: String,
    /// TB checkpoint interval in milliseconds (grid spacing for epoch
    /// bookkeeping; rounds themselves are commanded).
    pub tb_interval_ms: u64,
    /// Link-fault plan applied to this node's outbound data plane.
    pub link_plan: LinkFaultPlan,
    /// Stable-storage fault plan applied to this node's disk store.
    pub disk_plan: DiskFaultPlan,
    /// Override for the reactor's per-route ring capacity
    /// (`--wire-queue-bytes`); `None` keeps the policy default.
    pub wire_queue_bytes: Option<usize>,
    /// Incremental-checkpoint cadence: full image every `delta_k` stable
    /// commits, CRC-chained deltas between (`--delta-k`). Zero keeps the
    /// legacy full-image-every-commit store.
    pub delta_k: u32,
    /// Directory backing this node's archive tier (`--archive-dir`). Only
    /// meaningful with `--delta-k`; when absent the archive tier is an
    /// in-process object store that dies with the incarnation.
    pub archive_dir: Option<PathBuf>,
    /// Fault plan applied to the archive tier (`--chaos-archive`).
    pub archive_plan: ArchiveFaultPlan,
}

/// Encodes a codec value as lowercase hex for command-line transport.
pub fn plan_to_hex<T: Codec>(value: &T) -> String {
    let bytes = synergy_codec::to_bytes(value).expect("fault plans always encode");
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes a hex-encoded codec value shipped on the command line.
///
/// # Errors
///
/// Malformed hex or a codec decode failure.
pub fn plan_from_hex<T: Codec>(hex: &str) -> Result<T, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("odd-length hex plan".into());
    }
    let bytes: Vec<u8> = (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad hex plan: {e}"))?;
    synergy_codec::from_bytes(&bytes).map_err(|e| format!("bad plan encoding: {e}"))
}

impl NodeOpts {
    /// Parses node options from `argv` (without the program name); shared
    /// by `synergy-node` and the chaos crate's node wrapper binary.
    ///
    /// # Errors
    ///
    /// Unknown flags, missing values, or malformed plan encodings.
    pub fn from_args<I: Iterator<Item = String>>(mut args: I) -> Result<Self, String> {
        let mut pid = None;
        let mut seed = None;
        let mut data_dir = None;
        let mut ctrl_addr = None;
        let mut tb_interval_ms = 1700u64;
        let mut link_plan = LinkFaultPlan::default();
        let mut disk_plan = DiskFaultPlan::default();
        let mut wire_queue_bytes = None;
        let mut delta_k = 0u32;
        let mut archive_dir = None;
        let mut archive_plan = ArchiveFaultPlan::default();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--pid" => pid = Some(value()?.parse::<u32>().map_err(|e| e.to_string())?),
                "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
                "--data-dir" => data_dir = Some(PathBuf::from(value()?)),
                "--ctrl" => ctrl_addr = Some(value()?),
                "--tb-interval-ms" => {
                    tb_interval_ms = value()?.parse::<u64>().map_err(|e| e.to_string())?;
                }
                "--chaos-link" => link_plan = plan_from_hex(&value()?)?,
                "--chaos-disk" => disk_plan = plan_from_hex(&value()?)?,
                "--chaos-archive" => archive_plan = plan_from_hex(&value()?)?,
                "--delta-k" => delta_k = value()?.parse::<u32>().map_err(|e| e.to_string())?,
                "--archive-dir" => archive_dir = Some(PathBuf::from(value()?)),
                "--wire-queue-bytes" => {
                    wire_queue_bytes = Some(value()?.parse::<usize>().map_err(|e| e.to_string())?);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(NodeOpts {
            pid: pid.ok_or("--pid is required")?,
            seed: seed.ok_or("--seed is required")?,
            data_dir: data_dir.ok_or("--data-dir is required")?,
            ctrl_addr: ctrl_addr.ok_or("--ctrl is required")?,
            tb_interval_ms,
            link_plan,
            disk_plan,
            wire_queue_bytes,
            delta_k,
            archive_dir,
            archive_plan,
        })
    }
}

/// How many committed records the delta-mode disk tier retains. Must cover
/// `retain + k - 1` chain records so no retained delta ever loses its base
/// full image, plus the rollback span the orchestrator may command.
const DELTA_DISK_RETAIN: usize = 64;

/// The node's stable store: either the legacy full-image disk store or the
/// delta-chain layer over the tiered (disk + archive) store. An enum rather
/// than a trait object because [`TbRuntime`] owns the store by value.
#[derive(Debug)]
pub enum NodeStore {
    /// Full-image checkpoints straight to the local disk store.
    Legacy(DiskStableStore),
    /// CRC-chained delta checkpoints over the disk + archive tiers.
    Delta(Box<DeltaStable<TieredStore>>),
}

impl Stable for NodeStore {
    fn begin_write(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        match self {
            NodeStore::Legacy(s) => s.begin_write(checkpoint),
            NodeStore::Delta(s) => s.begin_write(checkpoint),
        }
    }

    fn replace_in_progress(&mut self, checkpoint: Checkpoint) -> Result<(), StableWriteError> {
        match self {
            NodeStore::Legacy(s) => s.replace_in_progress(checkpoint),
            NodeStore::Delta(s) => s.replace_in_progress(checkpoint),
        }
    }

    fn commit_write(&mut self) -> Result<(), StableWriteError> {
        match self {
            NodeStore::Legacy(s) => s.commit_write(),
            NodeStore::Delta(s) => s.commit_write(),
        }
    }

    fn abort_write(&mut self) -> bool {
        match self {
            NodeStore::Legacy(s) => s.abort_write(),
            NodeStore::Delta(s) => s.abort_write(),
        }
    }

    fn crash(&mut self) {
        match self {
            NodeStore::Legacy(s) => s.crash(),
            NodeStore::Delta(s) => s.crash(),
        }
    }

    fn is_writing(&self) -> bool {
        match self {
            NodeStore::Legacy(s) => s.is_writing(),
            NodeStore::Delta(s) => s.is_writing(),
        }
    }

    fn latest_shared(&self) -> Option<Checkpoint> {
        match self {
            NodeStore::Legacy(s) => s.latest_shared(),
            NodeStore::Delta(s) => s.latest_shared(),
        }
    }

    fn latest_at_or_before_shared(&self, seq: u64) -> Option<Checkpoint> {
        match self {
            NodeStore::Legacy(s) => s.latest_at_or_before_shared(seq),
            NodeStore::Delta(s) => s.latest_at_or_before_shared(seq),
        }
    }

    fn replace_latest(&mut self, checkpoint: Checkpoint) -> bool {
        match self {
            NodeStore::Legacy(s) => s.replace_latest(checkpoint),
            // Delta chains CRC-link records; rewriting committed history is
            // not representable, so injection reports unsupported here.
            NodeStore::Delta(s) => s.replace_latest(checkpoint),
        }
    }

    fn stats(&self) -> StableStats {
        match self {
            NodeStore::Legacy(s) => s.stats(),
            NodeStore::Delta(s) => s.stats(),
        }
    }
}

/// Builds the archive-tier object store for a delta-mode node, applying the
/// fault plan when it is not inert.
fn build_archive(opts: &NodeOpts) -> io::Result<Box<dyn ObjectStore>> {
    Ok(match &opts.archive_dir {
        Some(dir) => {
            let inner = DirObjectStore::open(dir)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if opts.archive_plan.is_inert() {
                Box::new(inner)
            } else {
                Box::new(FaultyObjectStore::new(inner, opts.archive_plan.clone()))
            }
        }
        None => {
            let inner = MemObjectStore::new();
            if opts.archive_plan.is_inert() {
                Box::new(inner)
            } else {
                Box::new(FaultyObjectStore::new(inner, opts.archive_plan.clone()))
            }
        }
    })
}

/// The node's live wire with the cluster's backpressure discipline: a
/// rejected send is retried with a bounded budget (the reactor's ring
/// usually drains within microseconds), and only a route that stays
/// saturated past the whole budget counts as *stalled* — surfaced through
/// [`WireStatus::backpressure`], which the orchestrator treats as fatal,
/// because a dropped data-plane frame breaks per-link FIFO and the
/// campaign can no longer converge.
#[derive(Debug)]
pub struct ClusterWire {
    wire: ReactorTransport,
    /// Envelopes dropped after the retry budget — lost on a live route.
    stalled: AtomicU64,
    retry_budget: Duration,
}

impl ClusterWire {
    /// Default retry budget: generous against transient ring pressure,
    /// bounded so a truly wedged peer fails the mission instead of
    /// hanging it.
    pub const DEFAULT_RETRY_BUDGET: Duration = Duration::from_secs(2);

    /// Wraps a live wire with the default retry budget.
    pub fn new(wire: ReactorTransport) -> ClusterWire {
        ClusterWire::with_budget(wire, ClusterWire::DEFAULT_RETRY_BUDGET)
    }

    /// Wraps a live wire with an explicit retry budget.
    pub fn with_budget(wire: ReactorTransport, retry_budget: Duration) -> ClusterWire {
        ClusterWire {
            wire,
            stalled: AtomicU64::new(0),
            retry_budget,
        }
    }

    /// The wrapped transport.
    pub fn wire(&self) -> &ReactorTransport {
        &self.wire
    }

    /// Envelopes dropped because a route stayed backpressured past the
    /// retry budget.
    pub fn stalled(&self) -> u64 {
        self.stalled.load(Ordering::Relaxed)
    }

    /// Records one stalled-route drop (the blast hook counts its own
    /// unretried rejections here so status sweeps see them).
    pub fn note_stalled(&self) {
        self.stalled.fetch_add(1, Ordering::Relaxed);
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.wire.local_addr()
    }

    /// Registers an endpoint and returns its delivery channel.
    pub fn register(&self, endpoint: Endpoint) -> Receiver<Envelope> {
        self.wire.register(endpoint)
    }

    /// Points `endpoint` at `addr` in the outbound routing table.
    pub fn set_route(&self, endpoint: Endpoint, addr: SocketAddr) {
        self.wire.set_route(endpoint, addr)
    }

    /// Stops the wrapped transport.
    pub fn shutdown(&self) {
        self.wire.shutdown()
    }
}

impl Transport for ClusterWire {
    fn send(&self, envelope: Envelope) {
        match self.wire.try_send(&envelope) {
            Err(SendError::Backpressure { .. }) => {}
            // Delivered, or dropped for a reason the wire already
            // accounts for (no route, dead route, shutdown).
            _ => return,
        }
        let deadline = Instant::now() + self.retry_budget;
        loop {
            std::thread::sleep(Duration::from_millis(1));
            match self.wire.try_send(&envelope) {
                Err(SendError::Backpressure { .. }) => {
                    if Instant::now() >= deadline {
                        self.note_stalled();
                        return;
                    }
                }
                _ => return,
            }
        }
    }
}

fn tb_config(interval_ms: u64) -> TbConfig {
    TbConfig::new(
        TbVariant::Adapted,
        SimDuration::from_millis(interval_ms),
        SyncParams::new(SimDuration::from_micros(500), 0.0),
        SimDuration::from_micros(50),
        SimDuration::from_millis(2),
    )
}

fn send_cmd(input_tx: &Sender<NodeInput>, cmd: NodeCmd) -> io::Result<()> {
    input_tx
        .send(NodeInput::Cmd(cmd))
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "node loop gone"))
}

/// Round-trips a `Status` through the node's FIFO input channel; doubles as
/// a barrier proving every earlier input has been processed.
fn status_barrier(input_tx: &Sender<NodeInput>) -> io::Result<NodeStatus> {
    let (tx, rx) = channel();
    send_cmd(input_tx, NodeCmd::Status(tx))?;
    rx.recv()
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "node loop gone"))
}

/// Runs one node process until the orchestrator commands shutdown or the
/// control connection drops.
///
/// # Errors
///
/// Storage, socket, or control-protocol failures.
pub fn run_node(opts: &NodeOpts) -> io::Result<()> {
    let (store, archive, recovered_epoch, recovered_torn, recovered_corrupt) = if opts.delta_k > 0 {
        let tiered = TieredStore::open(&opts.data_dir, DELTA_DISK_RETAIN, build_archive(opts)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let handle = tiered.handle();
        let reload_stats = tiered.stats();
        let delta = DeltaStable::open_with_retention(tiered, opts.delta_k, DELTA_DISK_RETAIN);
        let recovered_epoch = delta.latest_seq();
        // A chain orphan is bit-rot observed one layer up: the disk frame
        // verified but its chain link did not, so the record was dropped.
        let recovered_corrupt = reload_stats.corrupt_records + delta.delta_stats().chain_orphans;
        (
            NodeStore::Delta(Box::new(delta)),
            Some(handle),
            recovered_epoch,
            reload_stats.torn_writes,
            recovered_corrupt,
        )
    } else {
        let store = DiskStableStore::open(&opts.data_dir)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let recovered_epoch = store.latest_seq();
        let reload_stats = store.stats();
        // Bit-rot is only ever observed at reload time, so the count is
        // fixed for the lifetime of this incarnation.
        (
            NodeStore::Legacy(store),
            None,
            recovered_epoch,
            reload_stats.torn_writes,
            reload_stats.corrupt_records,
        )
    };
    let store = FaultyStable::new(store, opts.disk_plan.clone());

    let mut policy = WirePolicy::default();
    if let Some(bytes) = opts.wire_queue_bytes {
        policy.queue_bytes = bytes;
    }
    let wire = ReactorTransport::bind_with("127.0.0.1:0", policy)?;
    let raw_net = Arc::new(ClusterWire::new(wire));
    let data_port = raw_net.local_addr().port();
    let pid = ProcessId(opts.pid);
    let net_rx = raw_net.register(Endpoint::Process(pid));
    let net = Arc::new(FaultyTransport::new(
        Arc::clone(&raw_net),
        opts.link_plan.clone(),
    ));
    let (input_tx, input_rx) = channel::<NodeInput>();
    spawn_net_pump(pid, net_rx, input_tx.clone());

    let tb = TbRuntime::commanded(tb_config(opts.tb_interval_ms), store);
    let runner = NodeRunner::new(pid, opts.seed, Arc::clone(&net), input_rx, Some(tb));
    let runner_join = std::thread::Builder::new()
        .name(format!("synergy-cluster-node-{pid}"))
        .spawn(move || runner.run())
        .expect("spawn node loop");

    let mut ctrl = TcpStream::connect(&opts.ctrl_addr)?;
    ctrl.set_nodelay(true)?;
    send_ctrl(
        &mut ctrl,
        &CtrlReply::Hello {
            pid: opts.pid,
            data_port,
            epoch: recovered_epoch,
            torn_writes: recovered_torn,
            corrupt_records: recovered_corrupt,
        },
    )?;

    // A recv error means the orchestrator is gone: stop serving (the
    // process exits; durable state stays on disk for the next incarnation).
    while let Ok(msg) = recv_ctrl::<CtrlMsg>(&mut ctrl) {
        let reply = match msg {
            CtrlMsg::Produce { external } => {
                send_cmd(&input_tx, NodeCmd::Produce { external })?;
                // Barrier: the produce (and its sends) has been fully
                // processed before the orchestrator sees the reply.
                status_barrier(&input_tx)?;
                CtrlReply::Done
            }
            CtrlMsg::SetRoute { endpoint, addr } => {
                let addr = addr.parse().map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad route addr: {e}"))
                })?;
                raw_net.set_route(endpoint, addr);
                CtrlReply::Done
            }
            CtrlMsg::BeginCkpt => {
                let (tx, rx) = channel();
                send_cmd(&input_tx, NodeCmd::BeginCkpt(tx))?;
                let writing = rx
                    .recv()
                    .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "node loop gone"))?;
                CtrlReply::Began { writing }
            }
            CtrlMsg::CommitCkpt => {
                let (tx, rx) = channel();
                send_cmd(&input_tx, NodeCmd::CommitCkpt(tx))?;
                let epoch = rx
                    .recv()
                    .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "node loop gone"))?;
                CtrlReply::Committed { epoch }
            }
            CtrlMsg::Rollback { epoch } => {
                let (tx, rx) = channel();
                send_cmd(&input_tx, NodeCmd::Rollback { epoch, reply: tx })?;
                let outcome = rx
                    .recv()
                    .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "node loop gone"))?;
                CtrlReply::RolledBack {
                    restored_epoch: outcome.restored_epoch,
                    resent: outcome.resent as u64,
                }
            }
            CtrlMsg::Status => {
                let s = status_barrier(&input_tx)?;
                let totals = net.totals();
                let archive_stats = archive
                    .as_ref()
                    .map(ArchiveHandle::stats)
                    .unwrap_or_default();
                CtrlReply::Status(WireStatus {
                    dirty: s.dirty,
                    delivered: s.delivered,
                    at_runs: s.at_runs,
                    stable_epoch: s.stable_epoch,
                    torn_writes: s.torn_writes,
                    unacked: s.unacked as u64,
                    promoted: s.promoted,
                    logged: s.logged as u64,
                    net_queued: net.pending(),
                    chaos_drops: totals.drops,
                    chaos_dups: totals.dups,
                    chaos_lost: totals.lost,
                    stable_retries: s.stable_retries,
                    corrupt_records: recovered_corrupt,
                    backpressure: raw_net.stalled(),
                    archive_pending: archive.as_ref().map_or(0, |h| h.pending() as u64),
                    archive_uploads: archive_stats.uploads,
                    archive_failures: archive_stats.upload_failures,
                    rehydrated: archive_stats.rehydrated,
                })
            }
            CtrlMsg::Blast {
                to,
                frames,
                payload_bytes,
            } => {
                // Deliberate overdrive: raw try_send with no retry, so a
                // saturated ring surfaces immediately as a typed rejection.
                // Sequence numbers start far above anything the protocol
                // engine produces to keep the two streams disjoint.
                let mut sent = 0u64;
                let mut rejected = 0u64;
                for i in 0..frames {
                    let env = Envelope::new(
                        MsgId {
                            from: pid,
                            seq: MsgSeqNo(1 << 40 | i),
                        },
                        to,
                        MessageBody::External {
                            payload: vec![0u8; payload_bytes as usize],
                        },
                    );
                    match raw_net.wire().try_send(&env) {
                        Ok(()) => sent += 1,
                        Err(SendError::Backpressure { .. }) => {
                            rejected += 1;
                            raw_net.note_stalled();
                        }
                        Err(_) => rejected += 1,
                    }
                }
                CtrlReply::Blasted {
                    sent,
                    backpressure: rejected,
                }
            }
            CtrlMsg::Corrupt => {
                let (tx, rx) = channel();
                send_cmd(&input_tx, NodeCmd::Corrupt(tx))?;
                let epoch = rx
                    .recv()
                    .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "node loop gone"))?;
                CtrlReply::Corrupted { epoch }
            }
            CtrlMsg::Shutdown => {
                send_cmd(&input_tx, NodeCmd::Shutdown)?;
                send_ctrl(&mut ctrl, &CtrlReply::Done)?;
                break;
            }
        };
        send_ctrl(&mut ctrl, &reply)?;
    }
    drop(input_tx);
    let _ = runner_join.join();
    net.shutdown();
    raw_net.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_net::{LinkFaults, PartitionWindow};
    use synergy_storage::{DiskFault, DiskOp};

    #[test]
    fn plans_roundtrip_through_hex_argv_encoding() {
        let link = LinkFaultPlan {
            faults: LinkFaults::new(0.125, 0.25),
            delay_ms: (1, 9),
            partitions: vec![PartitionWindow {
                start_ms: 200,
                end_ms: 450,
            }],
            max_attempts: 12,
            retry_ms: (2, 40),
            seed: 77,
        };
        let disk = DiskFaultPlan {
            faults: vec![DiskFault {
                seq: 3,
                op: DiskOp::Commit,
                times: 1,
            }],
        };
        let link_back: LinkFaultPlan = plan_from_hex(&plan_to_hex(&link)).unwrap();
        let disk_back: DiskFaultPlan = plan_from_hex(&plan_to_hex(&disk)).unwrap();
        assert_eq!(link_back, link);
        assert_eq!(disk_back, disk);
    }

    #[test]
    fn node_opts_parse_chaos_flags() {
        let link = LinkFaultPlan {
            faults: LinkFaults::new(0.1, 0.0),
            ..LinkFaultPlan::inert(9)
        };
        let argv = [
            "--pid",
            "2",
            "--seed",
            "41",
            "--data-dir",
            "/tmp/x",
            "--ctrl",
            "127.0.0.1:9",
            "--chaos-link",
            &plan_to_hex(&link),
        ];
        let opts = NodeOpts::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(opts.pid, 2);
        assert_eq!(opts.link_plan, link);
        assert!(opts.disk_plan.is_inert());
        assert!(NodeOpts::from_args(["--pid".to_string()].into_iter()).is_err());
        assert!(
            NodeOpts::from_args(["--chaos-link".to_string(), "zz".to_string()].into_iter())
                .is_err()
        );
    }

    #[test]
    fn node_opts_parse_archive_flags() {
        let plan = ArchiveFaultPlan {
            seed: 11,
            put_fail: 0.25,
            latency_ms: 3,
            ..ArchiveFaultPlan::inert()
        };
        let argv = [
            "--pid",
            "1",
            "--seed",
            "7",
            "--data-dir",
            "/tmp/x",
            "--ctrl",
            "127.0.0.1:9",
            "--delta-k",
            "4",
            "--archive-dir",
            "/tmp/x-archive",
            "--chaos-archive",
            &plan_to_hex(&plan),
        ];
        let opts = NodeOpts::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(opts.delta_k, 4);
        assert_eq!(
            opts.archive_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x-archive"))
        );
        assert_eq!(opts.archive_plan, plan);

        // Legacy invocations keep the legacy store.
        let legacy = NodeOpts::from_args(
            [
                "--pid",
                "1",
                "--seed",
                "7",
                "--data-dir",
                "/tmp/x",
                "--ctrl",
                "127.0.0.1:9",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(legacy.delta_k, 0);
        assert!(legacy.archive_dir.is_none());
        assert!(legacy.archive_plan.is_inert());
    }
}
