//! The checkpoint record shared by volatile and stable stores.

use core::fmt;
use std::sync::Arc;

use synergy_codec::{codec_struct, Codec};
use synergy_des::SimTime;

use crate::crc::crc32;
use synergy_codec::CodecError;

/// Errors from encoding or decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The binary codec failed.
    Codec(CodecError),
    /// Stored CRC does not match the data (corruption or type mismatch).
    CrcMismatch {
        /// CRC recorded when the checkpoint was taken.
        expected: u32,
        /// CRC of the bytes as read back.
        actual: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Codec(e) => write!(f, "checkpoint codec error: {e}"),
            CheckpointError::CrcMismatch { expected, actual } => write!(
                f,
                "checkpoint crc mismatch: expected {expected:#010x}, got {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Codec(e) => Some(e),
            CheckpointError::CrcMismatch { .. } => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// A snapshot of one process's state, ready for volatile or stable storage.
///
/// The state is stored in the [`synergy_codec`] binary format and
/// guarded by a CRC-32, so corruption (and decoding with the wrong type) is
/// detected rather than silently accepted.
///
/// The serialized bytes live behind an `Arc<[u8]>`: cloning a checkpoint —
/// the adapted TB protocol's volatile→stable dirty-copy, epoch-line
/// selection, payload bundling — bumps a refcount instead of deep-copying
/// the state. `Arc<[u8]>` encodes byte-identically to `Vec<u8>`, so the wire
/// format (and every committed CRC) is unchanged.
///
/// # Example
///
/// ```rust
/// use synergy_des::SimTime;
/// use synergy_storage::Checkpoint;
///
/// let ckpt = Checkpoint::encode(3, SimTime::from_secs_f64(1.5), "type1", &(42u64, true))?;
/// let (counter, flag): (u64, bool) = ckpt.decode()?;
/// assert_eq!((counter, flag), (42, true));
/// assert_eq!(ckpt.seq(), 3);
/// # Ok::<(), synergy_storage::CheckpointError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    seq: u64,
    taken_at_nanos: u64,
    label: String,
    data: Arc<[u8]>,
    crc: u32,
}

codec_struct!(Checkpoint {
    seq,
    taken_at_nanos,
    label,
    data,
    crc
});

impl Checkpoint {
    /// Serializes `state` into a new checkpoint record.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Codec`] when `state` cannot be represented
    /// in the binary format (e.g. unknown-length sequences).
    pub fn encode<T: Codec>(
        seq: u64,
        taken_at: SimTime,
        label: impl Into<String>,
        state: &T,
    ) -> Result<Self, CheckpointError> {
        let mut scratch = Vec::new();
        Self::encode_with_scratch(seq, taken_at, label, state, &mut scratch)
    }

    /// Serializes `state` through a caller-owned scratch buffer: encode →
    /// CRC both run against `scratch` (whose capacity is reused across
    /// calls), and the only fresh allocation is the final shared `Arc<[u8]>`
    /// copy. Hot paths that checkpoint repeatedly should hold one scratch
    /// `Vec` and call this.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Codec`] when `state` cannot be represented
    /// in the binary format.
    pub fn encode_with_scratch<T: Codec>(
        seq: u64,
        taken_at: SimTime,
        label: impl Into<String>,
        state: &T,
        scratch: &mut Vec<u8>,
    ) -> Result<Self, CheckpointError> {
        synergy_codec::to_bytes_into(state, scratch)?;
        let crc = crc32(scratch);
        Ok(Checkpoint {
            seq,
            taken_at_nanos: taken_at.as_nanos(),
            label: label.into(),
            data: scratch.as_slice().into(),
            crc,
        })
    }

    /// Rebuilds a checkpoint from already-serialized state bytes, recomputing
    /// the CRC. This is the reconstruction path for layered stores (the
    /// archive's delta chain) that persist a *transformed* record and must
    /// reproduce the original byte-identically: for any checkpoint built by
    /// [`encode`](Self::encode), `from_raw_parts` over the same metadata and
    /// [`shared_data`](Self::shared_data) yields an equal record.
    pub fn from_raw_parts(
        seq: u64,
        taken_at: SimTime,
        label: impl Into<String>,
        data: Arc<[u8]>,
    ) -> Self {
        let crc = crc32(&data);
        Checkpoint {
            seq,
            taken_at_nanos: taken_at.as_nanos(),
            label: label.into(),
            data,
            crc,
        }
    }

    /// Deserializes the stored state.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::CrcMismatch`] when the bytes were corrupted
    /// and [`CheckpointError::Codec`] when they do not decode as `T`.
    pub fn decode<T: Codec>(&self) -> Result<T, CheckpointError> {
        let actual = crc32(&self.data);
        if actual != self.crc {
            return Err(CheckpointError::CrcMismatch {
                expected: self.crc,
                actual,
            });
        }
        Ok(synergy_codec::from_bytes(&self.data)?)
    }

    /// The checkpoint sequence number (MDCD volatile counter or TB `Ndc`).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// True simulation instant at which the snapshot was taken; recovery
    /// metrics compute rollback distance from this.
    pub fn taken_at(&self) -> SimTime {
        SimTime::from_nanos(self.taken_at_nanos)
    }

    /// The label supplied at encode time (`"type1"`, `"pseudo"`, ...).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Size of the serialized state in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// The serialized state, shared. Cloning the returned handle is a
    /// refcount bump.
    pub fn shared_data(&self) -> Arc<[u8]> {
        Arc::clone(&self.data)
    }

    /// Flips one bit of the stored state — fault injection for tests that
    /// verify corruption is detected. The flipped copy is private to this
    /// record: other holders of the shared bytes are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint holds no data bytes.
    pub fn corrupt_bit(&mut self, bit: usize) {
        assert!(!self.data.is_empty(), "cannot corrupt an empty checkpoint");
        let mut bytes = self.data.to_vec();
        let i = (bit / 8) % bytes.len();
        bytes[i] ^= 1 << (bit % 8);
        self.data = bytes.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(PartialEq, Debug)]
    struct AppState {
        counter: u64,
        pending: Vec<String>,
    }

    codec_struct!(AppState { counter, pending });

    fn sample() -> AppState {
        AppState {
            counter: 99,
            pending: vec!["m1".into(), "m2".into()],
        }
    }

    #[test]
    fn roundtrip_preserves_state_and_metadata() {
        let t = SimTime::from_secs_f64(2.5);
        let ckpt = Checkpoint::encode(7, t, "pseudo", &sample()).unwrap();
        assert_eq!(ckpt.seq(), 7);
        assert_eq!(ckpt.taken_at(), t);
        assert_eq!(ckpt.label(), "pseudo");
        assert!(ckpt.size_bytes() > 0);
        let back: AppState = ckpt.decode().unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn corruption_is_detected() {
        let mut ckpt = Checkpoint::encode(0, SimTime::ZERO, "t", &sample()).unwrap();
        ckpt.corrupt_bit(13);
        match ckpt.decode::<AppState>() {
            Err(CheckpointError::CrcMismatch { .. }) => {}
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn double_corruption_restores() {
        let mut ckpt = Checkpoint::encode(0, SimTime::ZERO, "t", &sample()).unwrap();
        ckpt.corrupt_bit(13);
        ckpt.corrupt_bit(13);
        assert!(ckpt.decode::<AppState>().is_ok());
    }

    #[test]
    fn scratch_encode_matches_plain_encode() {
        let t = SimTime::from_secs_f64(2.5);
        let plain = Checkpoint::encode(7, t, "pseudo", &sample()).unwrap();
        let mut scratch = Vec::new();
        let first = Checkpoint::encode_with_scratch(7, t, "pseudo", &sample(), &mut scratch);
        assert_eq!(first.unwrap(), plain);
        // Reuse the (now dirty) scratch for a different state: identical
        // record again, no stale bytes.
        let again = Checkpoint::encode_with_scratch(7, t, "pseudo", &sample(), &mut scratch);
        assert_eq!(again.unwrap(), plain);
    }

    #[test]
    fn corruption_is_private_to_the_corrupted_record() {
        let ckpt = Checkpoint::encode(0, SimTime::ZERO, "t", &sample()).unwrap();
        let mut shared = ckpt.clone();
        shared.corrupt_bit(13);
        assert!(shared.decode::<AppState>().is_err());
        assert_eq!(ckpt.decode::<AppState>().unwrap(), sample());
    }

    #[test]
    fn decoding_with_wrong_shape_fails() {
        let ckpt = Checkpoint::encode(0, SimTime::ZERO, "t", &42u8).unwrap();
        // u8 is one byte; u64 needs eight — must error, not garbage.
        assert!(ckpt.decode::<u64>().is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::CrcMismatch {
            expected: 1,
            actual: 2,
        };
        let text = e.to_string();
        assert!(text.contains("crc mismatch"), "{text}");
    }
}
