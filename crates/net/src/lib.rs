//! Message model and transports for `synergy-ft`.
//!
//! This crate defines everything the protocol engines know about messaging —
//! [`Envelope`]s, sequence numbers, piggybacked metadata — plus two ways of
//! moving envelopes around:
//!
//! * [`SimNetwork`]: a *pure* routing model for the discrete-event simulator.
//!   Given a send instant it answers "when does this arrive, if ever?",
//!   enforcing per-link FIFO order, bounded delays `[tmin, tmax]`, and
//!   optional loss/duplication injection. The DES driver in the `synergy`
//!   crate turns those answers into scheduled events.
//! * [`ReactorTransport`]: the live wire — length-prefixed codec frames
//!   over real sockets on a fixed set of nonblocking event-loop threads,
//!   used by the `synergy-cluster` multi-process runtime. The middleware
//!   node loop sees it only through the [`Transport`] trait, so link-fault
//!   wrappers ([`FaultyTransport`]) and in-memory test carriers slot in
//!   unchanged.
//!
//! The time-based checkpointing protocol only relies on the delay bounds and
//! on acknowledgment bookkeeping ([`AckTracker`]), which is why a simulated
//! network preserves its behaviour faithfully (see DESIGN.md §2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ack;
mod delay;
mod fault;
mod faulty;
mod frame;
mod message;
pub mod reactor;
pub mod retry;
mod sim;
mod transport;

pub use ack::{AckTracker, PendingAcks};
pub use delay::DelayModel;
pub use fault::{LinkFaultPlan, LinkFaults, PartitionWindow};
pub use faulty::{FaultTotals, FaultyTransport, LostFrame};
pub use frame::{
    frame_envelope, frame_envelope_with_acks, FrameDecoder, FrameError, PiggyAck, MAX_FRAME_LEN,
    MAX_PIGGY_ACKS,
};
pub use message::{
    CkptSeqNo, DeviceId, Endpoint, Envelope, MessageBody, MissionId, MsgId, MsgSeqNo, ProcessId,
};
pub use reactor::{
    GaveUpRoute, ReactorTransport, ReconnectPolicy, SendError, WirePolicy, WireStats,
};
pub use sim::{LinkKey, RouteDecision, SimNetwork};
pub use transport::Transport;
