//! The live runtime hosting the `synergy-ft` protocol engines.
//!
//! The paper reports (§5) that the first version of the authors' *GSU
//! Middleware* implemented the prototype MDCD protocol, with the
//! TB-coordination scheme planned as a later addition. This crate is that
//! middleware layer with both protocols in place: a [`NodeRunner`] hosts the
//! same sans-io [`ProcessHost`](synergy::system::ProcessHost) the simulator
//! drives (application, MDCD engine, stores, ack bookkeeping) on one thread
//! per process, and a [`TbRuntime`] persists the coordinated (adapted-TB)
//! stable checkpoints. Checkpoint rounds are *commanded* by an external
//! coordinator — the `synergy-cluster` orchestrator, whose nodes run this
//! loop over the reactor wire and an on-disk store — so a distributed
//! mission stays comparable byte-for-byte with a simulator run.
//!
//! # Example
//!
//! ```rust
//! use std::sync::mpsc::channel;
//! use std::sync::{Arc, Mutex};
//!
//! use synergy::system::P1ACT;
//! use synergy_middleware::{NodeCmd, NodeInput, NodeRunner};
//! use synergy_net::{Envelope, Transport};
//! use synergy_storage::StableStore;
//!
//! /// A carrier that only records what the node sends.
//! #[derive(Default)]
//! struct Outbox(Mutex<Vec<Envelope>>);
//!
//! impl Transport for Outbox {
//!     fn send(&self, envelope: Envelope) {
//!         self.0.lock().unwrap().push(envelope);
//!     }
//! }
//!
//! let net = Arc::new(Outbox::default());
//! let (input, input_rx) = channel();
//! let runner = NodeRunner::<_, StableStore>::new(P1ACT, 7, Arc::clone(&net), input_rx, None);
//! let node = std::thread::spawn(move || runner.run());
//!
//! input.send(NodeInput::Cmd(NodeCmd::Produce { external: true })).unwrap();
//! // Commands share one FIFO channel, so a Status round-trip is a barrier.
//! let (status, status_rx) = channel();
//! input.send(NodeInput::Cmd(NodeCmd::Status(status))).unwrap();
//! assert_eq!(status_rx.recv().unwrap().at_runs, 1);
//! assert!(net.0.lock().unwrap()[0].body.is_external());
//!
//! input.send(NodeInput::Cmd(NodeCmd::Shutdown)).unwrap();
//! node.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod tb_runtime;

pub use node::{spawn_net_pump, NodeCmd, NodeInput, NodeRunner, NodeStatus, RollbackOutcome};
pub use tb_runtime::{TbEffect, TbRuntime};
