//! Live-wire throughput benchmarks: absolute frames/sec and bytes/sec of
//! the sharded reactor over real loopback sockets, on the two topologies
//! the cluster runtime actually uses — a 3-node full mesh (one-way
//! streams) and a 16-route request/ack fan-out (every envelope
//! acknowledged back to the sender, as the cluster ack protocol does).
//!
//! A plain timing harness (`harness = false`): each configuration moves a
//! fixed number of framed envelopes end-to-end (enqueue → syscall → decode
//! → delivery) and reports the sustained rate.
//!
//! Environment knobs (all optional, used by `scripts/bench.sh`):
//!
//! - `BENCH_WIRE_FRAMES`: frames per sender per configuration
//!   (default 100000 — sized so connection ramp-up does not dominate).
//! - `BENCH_JSON`: path of the JSON regression record; the run is appended
//!   to its `"wire"` section (the missions harness owns the top-level
//!   `"runs"` array).
//! - `BENCH_LABEL`, `BENCH_GIT_REV`: label and revision stored with the run.

use std::fmt::Write as _;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use synergy_bench::record::{sanitize, BenchRecord};
use synergy_net::{
    DeviceId, Endpoint, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId, ReactorTransport,
    Transport, WirePolicy,
};

const PAYLOAD_BYTES: usize = 32;

fn frames_from_env() -> u64 {
    std::env::var("BENCH_WIRE_FRAMES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(100_000)
}

/// A policy that never drops under sustained load: the bench measures
/// throughput, so senders must block on a full ring, not shed frames.
fn bench_policy() -> WirePolicy {
    WirePolicy {
        send_stall: Duration::from_secs(60),
        ..WirePolicy::default()
    }
}

fn envelope(from: u32, to: Endpoint, seq: u64) -> Envelope {
    Envelope::new(
        MsgId {
            from: ProcessId(from),
            seq: MsgSeqNo(seq),
        },
        to,
        MessageBody::External {
            payload: vec![0u8; PAYLOAD_BYTES],
        },
    )
}

fn drain(rx: Receiver<Envelope>, expect: u64) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut got = 0u64;
        while got < expect {
            // Deliveries arrive in coalesced bursts: drain each burst with
            // cheap non-blocking receives, park only when it runs dry.
            match rx.try_recv() {
                Ok(_) => got += 1,
                Err(_) => match rx.recv_timeout(Duration::from_secs(60)) {
                    Ok(_) => got += 1,
                    Err(_) => break,
                },
            }
        }
        got
    })
}

struct Rate {
    frames_per_sec: f64,
    mbytes_per_sec: f64,
}

fn rate(total_frames: u64, payload_frames: u64, elapsed: Duration) -> Rate {
    let secs = elapsed.as_secs_f64().max(1e-9);
    Rate {
        frames_per_sec: total_frames as f64 / secs,
        mbytes_per_sec: (payload_frames * PAYLOAD_BYTES as u64) as f64 / secs / 1e6,
    }
}

/// 3-node full mesh: every node sends `frames` envelopes round-robin to
/// its two peers while receiving from both. Total traffic `3 × frames`.
fn bench_mesh3(frames: u64) -> Rate {
    let wires: Vec<ReactorTransport> = (0..3)
        .map(|_| ReactorTransport::bind_with("127.0.0.1:0", bench_policy()).expect("bind"))
        .collect();
    let rxs: Vec<Receiver<Envelope>> = wires
        .iter()
        .enumerate()
        .map(|(i, w)| w.register(Endpoint::Process(ProcessId(i as u32 + 1))))
        .collect();
    for w in &wires {
        for (i, peer) in wires.iter().enumerate() {
            w.set_route(
                Endpoint::Process(ProcessId(i as u32 + 1)),
                peer.local_addr(),
            );
        }
    }
    // Each node receives `frames` total: its two peers each split their
    // own `frames` sends evenly across two destinations.
    let drains: Vec<_> = rxs.into_iter().map(|rx| drain(rx, frames)).collect();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for (i, w) in wires.iter().enumerate() {
            scope.spawn(move || {
                let me = i as u32 + 1;
                let peers: Vec<Endpoint> = (1..=3)
                    .filter(|&p| p != me)
                    .map(|p| Endpoint::Process(ProcessId(p)))
                    .collect();
                for seq in 0..frames {
                    w.send(envelope(me, peers[(seq % 2) as usize], seq));
                }
            });
        }
    });
    let delivered: u64 = drains.into_iter().map(|d| d.join().expect("drain")).sum();
    let elapsed = started.elapsed();
    assert_eq!(delivered, 3 * frames, "mesh3: frames lost in flight");
    for w in &wires {
        w.shutdown();
    }
    rate(delivered, delivered, elapsed)
}

/// 16-route request/ack fan-out: one sender, sixteen single-endpoint
/// receivers on distinct addresses, each acknowledging every envelope back
/// to the sender — the shape of orchestrator traffic, where every
/// application message is transport-acked. The reactor coalesces data
/// writes and rides up to [`WirePolicy::max_piggy_acks`] acks per carrier
/// frame. The rate counts frames moved end-to-end in both directions
/// (`2 × frames`).
fn bench_fan_out(routes: u32, frames: u64) -> Rate {
    let receivers: Vec<ReactorTransport> = (0..routes)
        .map(|_| ReactorTransport::bind_with("127.0.0.1:0", bench_policy()).expect("bind"))
        .collect();
    let sender = ReactorTransport::bind_with("127.0.0.1:0", bench_policy()).expect("bind");
    let me = Endpoint::Process(ProcessId(99));
    let ack_rx = sender.register(me);
    let mut rxs = Vec::new();
    for (i, r) in receivers.iter().enumerate() {
        let endpoint = Endpoint::Device(DeviceId(i as u32));
        rxs.push(r.register(endpoint));
        sender.set_route(endpoint, r.local_addr());
        r.set_route(me, sender.local_addr());
    }

    let started = Instant::now();
    let acked = std::thread::scope(|scope| {
        for (i, rx) in rxs.into_iter().enumerate() {
            let r = &receivers[i];
            let per_route =
                frames / u64::from(routes) + u64::from((frames % u64::from(routes)) > i as u64);
            scope.spawn(move || {
                let from = ProcessId(100 + i as u32);
                for seq in 0..per_route {
                    let env = match rx.try_recv() {
                        Ok(env) => env,
                        Err(_) => match rx.recv_timeout(Duration::from_secs(60)) {
                            Ok(env) => env,
                            Err(_) => break,
                        },
                    };
                    r.send(Envelope::new(
                        MsgId {
                            from,
                            seq: MsgSeqNo(seq),
                        },
                        me,
                        MessageBody::Ack { of: env.id },
                    ));
                }
            });
        }
        let acks = drain(ack_rx, frames);
        for seq in 0..frames {
            let endpoint = Endpoint::Device(DeviceId((seq % u64::from(routes)) as u32));
            sender.send(envelope(99, endpoint, seq));
        }
        acks.join().expect("ack drain")
    });
    let elapsed = started.elapsed();
    assert_eq!(acked, frames, "routes{routes}: frames lost in flight");
    sender.shutdown();
    for r in &receivers {
        r.shutdown();
    }
    rate(2 * frames, frames, elapsed)
}

fn run_json(label: &str, git_rev: Option<&str>, frames: u64, results: &[(String, Rate)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "        \"label\": \"{}\",", sanitize(label));
    if let Some(rev) = git_rev {
        let _ = writeln!(s, "        \"git_rev\": \"{}\",", sanitize(rev));
    }
    let _ = writeln!(s, "        \"nproc\": {},", nproc());
    let _ = writeln!(s, "        \"frames_per_sender\": {frames},");
    let _ = writeln!(s, "        \"payload_bytes\": {PAYLOAD_BYTES},");
    let _ = writeln!(s, "        \"topologies\": {{");
    for (i, (name, r)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "          \"{name}\": {{ \"frames_per_sec\": {:.0}, \"mbytes_per_sec\": {:.2} }}{comma}",
            r.frames_per_sec, r.mbytes_per_sec
        );
    }
    let _ = writeln!(s, "        }}");
    let _ = write!(s, "      }}");
    s
}

/// Cores available to this process, recorded with every run so rates
/// from different machines are never compared as if alike.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let frames = frames_from_env();
    let mesh3 = bench_mesh3(frames);
    println!(
        "wire/mesh3_reactor: {:.0} frames/s, {:.2} MB/s ({frames} frames/sender, {} cores)",
        mesh3.frames_per_sec,
        mesh3.mbytes_per_sec,
        nproc()
    );
    let routes16 = bench_fan_out(16, frames);
    println!(
        "wire/routes16_reactor: {:.0} frames/s, {:.2} MB/s ({frames} frames total, {} cores)",
        routes16.frames_per_sec,
        routes16.mbytes_per_sec,
        nproc()
    );
    let results = [
        ("mesh3_reactor".to_string(), mesh3),
        ("routes16_reactor".to_string(), routes16),
    ];

    if let Ok(path) = std::env::var("BENCH_JSON") {
        let label = std::env::var("BENCH_LABEL").unwrap_or_else(|_| "run".into());
        let git_rev = std::env::var("BENCH_GIT_REV").ok();
        let mut record = BenchRecord::load(&path);
        let replaced =
            record.push_wire_run(&run_json(&label, git_rev.as_deref(), frames, &results));
        record.save(&path);
        if replaced > 0 {
            println!("wire record appended to {path} (replaced {replaced} same-rev run)");
        } else {
            println!("wire record appended to {path}");
        }
    }
}
