//! Serializable engine control state.

use synergy_codec::codec_struct;
use synergy_net::{CkptSeqNo, Envelope, MsgSeqNo};

/// The control-state portion of a checkpoint.
///
/// A checkpoint must capture the *protocol* state alongside the application
/// state: rolling an application back without its dirty bit, message
/// sequence counter and (for the shadow) message log would desynchronize the
/// replicas. Engines embed a snapshot in every
/// [`TakeCheckpoint`](crate::Action::TakeCheckpoint) action and accept one
/// back through their `restore` methods.
///
/// `ndc` is recorded for diagnosis but deliberately **not** restored: the
/// stable-checkpoint epoch counter tracks stable storage, which neither a
/// software rollback nor a hardware recovery rewinds. Drivers realign it
/// explicitly with
/// [`Event::StableCheckpointCommitted`](crate::Event::StableCheckpointCommitted).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// The dirty bit (for `P1act` this is the constant 1).
    pub dirty: bool,
    /// `P1act`'s pseudo dirty bit (modified protocol only).
    pub pseudo_dirty: Option<bool>,
    /// The per-process outgoing message sequence counter.
    pub msg_sn: MsgSeqNo,
    /// The shadow's / peer's record of `P1act`'s last valid message
    /// (`VR_act` / `msg_SN_P1act`).
    pub vr_act: MsgSeqNo,
    /// Local stable-checkpoint sequence number at snapshot time (not
    /// restored; see type docs).
    pub ndc: CkptSeqNo,
    /// The shadow's suppressed-message log (empty for other roles).
    pub log: Vec<Envelope>,
    /// Whether the shadow has taken over the active role.
    pub promoted: bool,
}

codec_struct!(EngineSnapshot {
    dirty,
    pseudo_dirty,
    msg_sn,
    vr_act,
    ndc,
    log,
    promoted
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean_state() {
        let s = EngineSnapshot::default();
        assert!(!s.dirty);
        assert_eq!(s.pseudo_dirty, None);
        assert_eq!(s.msg_sn, MsgSeqNo(0));
        assert!(s.log.is_empty());
        assert!(!s.promoted);
    }

    #[test]
    fn snapshot_is_serializable() {
        let s = EngineSnapshot {
            dirty: true,
            pseudo_dirty: Some(false),
            msg_sn: MsgSeqNo(9),
            vr_act: MsgSeqNo(7),
            ndc: CkptSeqNo(2),
            log: vec![],
            promoted: false,
        };
        let bytes = synergy_codec::to_bytes(&s).unwrap();
        let back: EngineSnapshot = synergy_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
    }
}
