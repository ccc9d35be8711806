//! Property coverage for the TCP wire framing: arbitrary envelopes, encoded
//! into frames, concatenated, and re-chunked at arbitrary byte boundaries
//! must decode back identically — TCP guarantees ordered bytes, not ordered
//! reads, so the decoder must be indifferent to where `read()` boundaries
//! fall.
//!
//! Hand-rolled property tests over the workspace's deterministic RNG (the
//! repo carries no external property-testing crate): each case derives from
//! a seeded `DetRng`, so failures reproduce exactly.

use synergy_des::DetRng;
use synergy_net::{
    frame_envelope, frame_envelope_with_acks, CkptSeqNo, DeviceId, Endpoint, Envelope,
    FrameDecoder, MessageBody, MissionId, MsgId, MsgSeqNo, PiggyAck, ProcessId, MAX_PIGGY_ACKS,
};

fn arbitrary_body(rng: &mut DetRng) -> MessageBody {
    match rng.gen_range(0u64..4) {
        0 => MessageBody::Application {
            payload: arbitrary_payload(rng),
            dirty: rng.gen_bool(0.5),
        },
        1 => MessageBody::External {
            payload: arbitrary_payload(rng),
        },
        2 => MessageBody::PassedAt {
            msg_sn: MsgSeqNo(rng.next_u64()),
            ndc: CkptSeqNo(rng.next_u64()),
        },
        _ => MessageBody::Ack {
            of: MsgId {
                from: ProcessId(rng.next_u32()),
                seq: MsgSeqNo(rng.next_u64()),
            },
        },
    }
}

fn arbitrary_payload(rng: &mut DetRng) -> Vec<u8> {
    // Heavily weighted toward small payloads (the protocol's real traffic)
    // with an occasional multi-kilobyte one to cross several read chunks.
    let len = if rng.gen_bool(0.9) {
        rng.gen_range(0u64..64) as usize
    } else {
        rng.gen_range(64u64..8192) as usize
    };
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn arbitrary_envelope(rng: &mut DetRng) -> Envelope {
    let to: Endpoint = if rng.gen_bool(0.8) {
        ProcessId(rng.gen_range(1u64..4) as u32).into()
    } else {
        DeviceId(rng.gen_range(0u64..2) as u32).into()
    };
    // Most traffic is solo; a quarter carries a fleet tenant tag so every
    // frame property also covers mission-tagged envelopes sharing a route.
    let mission = if rng.gen_bool(0.75) {
        MissionId::SOLO
    } else {
        MissionId(rng.next_u64())
    };
    Envelope::new(
        MsgId {
            from: ProcessId(rng.gen_range(1u64..4) as u32),
            seq: MsgSeqNo(rng.next_u64()),
        },
        to,
        arbitrary_body(rng),
    )
    .with_mission(mission)
}

/// Splits `wire` into chunks at random boundaries, including empty chunks
/// and single-byte reads, and feeds them to a fresh decoder.
fn decode_chunked(wire: &[u8], rng: &mut DetRng) -> Vec<Envelope> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut rest = wire;
    while !rest.is_empty() {
        let take = match rng.gen_range(0u64..10) {
            0 => 0,                                                          // a zero-byte read
            1..=4 => 1, // pathological byte-at-a-time
            _ => rng.gen_range(1u64..=rest.len().min(1500) as u64) as usize, // MTU-ish
        };
        let (chunk, tail) = rest.split_at(take.min(rest.len()));
        dec.push(chunk);
        rest = tail;
        while let Some(env) = dec.next_envelope().expect("valid stream") {
            out.push(env);
        }
    }
    assert_eq!(dec.buffered(), 0, "no bytes may be left over");
    out
}

#[test]
fn arbitrary_envelopes_roundtrip_across_arbitrary_chunk_boundaries() {
    for seed in 0..200u64 {
        let mut rng = DetRng::new(seed).stream("frame-roundtrip");
        let n = rng.gen_range(1u64..20) as usize;
        let envelopes: Vec<Envelope> = (0..n).map(|_| arbitrary_envelope(&mut rng)).collect();
        let mut wire = Vec::new();
        for env in &envelopes {
            wire.extend_from_slice(&frame_envelope(env).expect("encodable"));
        }
        let decoded = decode_chunked(&wire, &mut rng);
        assert_eq!(decoded, envelopes, "seed {seed}");
    }
}

#[test]
fn single_frame_survives_every_split_point() {
    // Exhaustive rather than random: one frame, split at every possible
    // boundary into exactly two reads.
    let mut rng = DetRng::new(42).stream("every-split");
    let env = arbitrary_envelope(&mut rng);
    let frame = frame_envelope(&env).expect("encodable");
    for split in 0..=frame.len() {
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..split]);
        let early = dec.next_envelope().expect("valid prefix");
        if split < frame.len() {
            assert!(early.is_none(), "split {split}: decoded from a prefix");
        }
        dec.push(&frame[split..]);
        let mut got = early;
        if got.is_none() {
            got = dec.next_envelope().expect("valid stream");
        }
        assert_eq!(got.as_ref(), Some(&env), "split {split}");
        assert_eq!(dec.buffered(), 0);
    }
}

#[test]
fn concatenated_frames_in_one_read_all_decode() {
    let mut rng = DetRng::new(7).stream("one-read");
    let envelopes: Vec<Envelope> = (0..30).map(|_| arbitrary_envelope(&mut rng)).collect();
    let mut wire = Vec::new();
    for env in &envelopes {
        wire.extend_from_slice(&frame_envelope(env).expect("encodable"));
    }
    let mut dec = FrameDecoder::new();
    dec.push(&wire);
    let mut out = Vec::new();
    while let Some(env) = dec.next_envelope().expect("valid stream") {
        out.push(env);
    }
    assert_eq!(out, envelopes);
}

fn arbitrary_acks(rng: &mut DetRng) -> Vec<PiggyAck> {
    let n = rng.gen_range(0u64..=MAX_PIGGY_ACKS as u64) as usize;
    (0..n)
        .map(|_| PiggyAck {
            to: ProcessId(rng.gen_range(1u64..4) as u32).into(),
            id: MsgId {
                from: ProcessId(rng.gen_range(1u64..4) as u32),
                seq: MsgSeqNo(rng.next_u64()),
            },
            of: MsgId {
                from: ProcessId(rng.gen_range(1u64..4) as u32),
                seq: MsgSeqNo(rng.next_u64()),
            },
        })
        .collect()
}

/// What a frame with piggybacked acks must decode to: the acks as
/// standalone ack envelopes (in header order), then the data envelope.
fn expected_for(env: &Envelope, acks: &[PiggyAck]) -> Vec<Envelope> {
    let mut out: Vec<Envelope> = acks.iter().map(|a| a.into_envelope()).collect();
    out.push(env.clone());
    out
}

#[test]
fn piggybacked_ack_frames_roundtrip_across_arbitrary_chunk_boundaries() {
    for seed in 0..200u64 {
        let mut rng = DetRng::new(seed).stream("piggy-roundtrip");
        let n = rng.gen_range(1u64..12) as usize;
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..n {
            let env = arbitrary_envelope(&mut rng);
            let acks = arbitrary_acks(&mut rng);
            wire.extend_from_slice(&frame_envelope_with_acks(&env, &acks).expect("encodable"));
            expected.extend(expected_for(&env, &acks));
        }
        let decoded = decode_chunked(&wire, &mut rng);
        assert_eq!(decoded, expected, "seed {seed}");
    }
}

#[test]
fn piggybacked_ack_frame_survives_every_split_point() {
    // Exhaustive: one data frame carrying acks, split at every byte
    // boundary into exactly two reads — the header extension must be as
    // torn-read-proof as the rest of the frame.
    let mut rng = DetRng::new(99).stream("piggy-every-split");
    let env = arbitrary_envelope(&mut rng);
    let acks: Vec<PiggyAck> = loop {
        let acks = arbitrary_acks(&mut rng);
        if !acks.is_empty() {
            break acks;
        }
    };
    let frame = frame_envelope_with_acks(&env, &acks).expect("encodable");
    let expected = expected_for(&env, &acks);
    for split in 0..=frame.len() {
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..split]);
        let mut got = Vec::new();
        while let Some(e) = dec.next_envelope().expect("valid prefix") {
            got.push(e);
        }
        if split < frame.len() {
            assert!(got.is_empty(), "split {split}: decoded from a prefix");
        }
        dec.push(&frame[split..]);
        while let Some(e) = dec.next_envelope().expect("valid stream") {
            got.push(e);
        }
        assert_eq!(got, expected, "split {split}");
        assert_eq!(dec.buffered(), 0);
    }
}

mod partition_heal {
    //! Property: frames sent across a `FaultyTransport` partition (with
    //! drops layered on top) are either delivered exactly once after heal
    //! or reported in the lost log — never corrupted, never duplicated
    //! (for non-ack frames), and never reordered within a route.

    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use super::*;
    use synergy_net::{FaultyTransport, LinkFaultPlan, LinkFaults, PartitionWindow, Transport};

    /// Terminal transport that records every envelope it is handed.
    #[derive(Default)]
    struct Sink {
        seen: Mutex<Vec<Envelope>>,
    }

    impl Transport for Sink {
        fn send(&self, envelope: Envelope) {
            self.seen.lock().unwrap().push(envelope);
        }
    }

    fn drain(faulty: &FaultyTransport<Sink>) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while faulty.pending() > 0 {
            assert!(Instant::now() < deadline, "partition failed to drain");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn partitioned_frames_deliver_exactly_once_after_heal_or_report_lost() {
        for seed in 0..12u64 {
            let mut rng = DetRng::new(seed).stream("partition-heal");
            let plan = LinkFaultPlan {
                faults: LinkFaults::new(rng.next_f64() * 0.4, 0.0),
                delay_ms: (0, rng.gen_range(0u64..3)),
                partitions: vec![PartitionWindow {
                    start_ms: 0,
                    end_ms: rng.gen_range(30u64..=90),
                }],
                max_attempts: rng.gen_range(2u64..=5) as u32,
                retry_ms: (1, 4),
                seed,
            };
            let sink = Arc::new(Sink::default());
            let faulty = FaultyTransport::new(Arc::clone(&sink), plan);
            // Unique sequence numbers per route so exactly-once is checkable.
            let n = rng.gen_range(10u64..40) as usize;
            let mut sent: BTreeMap<Endpoint, Vec<Envelope>> = BTreeMap::new();
            for seq in 0..n as u64 {
                let mut env = arbitrary_envelope(&mut rng);
                env.id.seq = MsgSeqNo(seq);
                if env.body.is_ack() {
                    // Keep the invariant checkable: acks may legitimately
                    // be duplicated, so this property sticks to the other
                    // three frame classes.
                    env.body = MessageBody::External { payload: vec![0] };
                }
                sent.entry(env.to).or_default().push(env.clone());
                faulty.send(env);
            }
            drain(&faulty);
            let seen = sink.seen.lock().unwrap().clone();
            let lost = faulty.lost();
            for (route, outbound) in &sent {
                let delivered: Vec<&Envelope> = seen.iter().filter(|e| e.to == *route).collect();
                let lost_here: Vec<_> = lost.iter().filter(|l| l.to == *route).collect();
                assert_eq!(
                    delivered.len() + lost_here.len(),
                    outbound.len(),
                    "seed {seed} route {route}: every frame delivers once or is reported lost"
                );
                // Delivered frames are the sent frames minus the lost ones,
                // bit-for-bit and in send order (FIFO within a route).
                let mut expect = outbound.clone();
                expect.retain(|e| !lost_here.iter().any(|l| l.id == e.id));
                assert_eq!(
                    delivered.into_iter().cloned().collect::<Vec<_>>(),
                    expect,
                    "seed {seed} route {route}: uncorrupted, unreordered"
                );
            }
            assert_eq!(
                faulty.totals().lost as usize,
                lost.len(),
                "seed {seed}: lost counter matches the lost log"
            );
        }
    }
}
