//! Property-based tests over randomized workloads, fault schedules and
//! protocol parameters.
//!
//! Randomness comes from the workspace's deterministic RNG ([`DetRng`]) so
//! every case replays identically; assertion messages carry the `case`
//! index of the failing draw.

use synergy::{Mission, Scheme, SystemConfig};
use synergy_codec::{from_bytes, to_bytes};
use synergy_des::DetRng;

/// A short random string mixing ASCII and multi-byte code points, to
/// exercise UTF-8 boundaries in the codec.
fn random_string(rng: &mut DetRng) -> String {
    let len = rng.gen_range(0u64..12);
    (0..len)
        .map(|_| match rng.gen_range(0u64..4) {
            0 => char::from(rng.gen_range(0x20u64..0x7f) as u8),
            1 => char::from_u32(rng.gen_range(0xA0u64..0x250) as u32).unwrap_or('x'),
            2 => char::from_u32(rng.gen_range(0x4E00u64..0x4F00) as u32).unwrap_or('y'),
            _ => '\u{1F600}',
        })
        .collect()
}

/// The headline theorem: under the coordinated scheme, any combination
/// of workload, one software fault and one hardware fault preserves
/// validity-concerned global consistency and recoverability.
#[test]
fn coordinated_scheme_invariants_hold() {
    let mut rng = DetRng::new(0x1A).stream("coordinated-invariants");
    for case in 0..24 {
        let seed = rng.gen_range(0u64..10_000);
        let internal_per_min = rng.gen_range(0.5f64..90.0);
        let external_per_min = rng.gen_range(0.5f64..8.0);
        let tb_interval = rng.gen_range(1.0f64..20.0);
        let hw_at = rng.gen_range(20.0f64..200.0);
        let sw_at = rng.gen_bool(0.5).then(|| rng.gen_range(20.0f64..200.0));
        let mut builder = SystemConfig::builder()
            .scheme(Scheme::Coordinated)
            .seed(seed)
            .duration_secs(240.0)
            .internal_rate_per_min(internal_per_min)
            .external_rate_per_min(external_per_min)
            .tb_interval_secs(tb_interval)
            .hardware_fault_at_secs(hw_at)
            .trace(false);
        if let Some(at) = sw_at {
            builder = builder.software_fault_at_secs(at);
        }
        let outcome = Mission::new(builder.build()).run();
        assert!(
            outcome.verdicts.all_hold(),
            "case={case} seed={seed}: violations: {:?}",
            outcome.verdicts.violations
        );
        assert!(
            outcome.metrics.hardware_recoveries >= 1,
            "case={case} seed={seed}"
        );
    }
}

/// Crashing any node at any time is survivable and every rollback
/// distance is non-negative and bounded by the fault time.
#[test]
fn any_node_crash_is_survivable() {
    let mut rng = DetRng::new(0x1A).stream("any-node-crash");
    for case in 0..24 {
        let seed = rng.gen_range(0u64..1_000);
        let node = rng.gen_range(0u64..3) as usize;
        let hw_at = rng.gen_range(10.0f64..110.0);
        let outcome = Mission::new(
            SystemConfig::builder()
                .scheme(Scheme::Coordinated)
                .seed(seed)
                .duration_secs(120.0)
                .internal_rate_per_min(30.0)
                .external_rate_per_min(4.0)
                .tb_interval_secs(5.0)
                .hardware_fault(synergy::HardwareFault {
                    at: synergy_des::SimTime::from_secs_f64(hw_at),
                    node,
                })
                .trace(false)
                .build(),
        )
        .run();
        assert!(
            outcome.verdicts.all_hold(),
            "case={case} seed={seed} node={node}: {:?}",
            outcome.verdicts.violations
        );
        for d in outcome.metrics.hardware_rollback_distances() {
            assert!(d >= 0.0, "case={case}");
            assert!(
                d <= hw_at + 1.0,
                "case={case}: distance {d} exceeds fault time {hw_at}"
            );
        }
    }
}

/// Missions are replay-deterministic in every observable counter.
#[test]
fn missions_are_deterministic() {
    let mut rng = DetRng::new(0x1A).stream("missions-deterministic");
    for case in 0..24 {
        let seed = rng.gen_range(0u64..500);
        let sw_at = rng.gen_range(20.0f64..100.0);
        let run = || {
            let o = Mission::new(
                SystemConfig::builder()
                    .scheme(Scheme::Coordinated)
                    .seed(seed)
                    .duration_secs(120.0)
                    .internal_rate_per_min(20.0)
                    .external_rate_per_min(3.0)
                    .software_fault_at_secs(sw_at)
                    .trace(false)
                    .build(),
            )
            .run();
            (
                o.metrics.messages_sent,
                o.metrics.messages_delivered,
                o.metrics.stable_commits,
                o.metrics.software_recoveries,
                o.device_messages,
            )
        };
        assert_eq!(run(), run(), "case={case} seed={seed}");
    }
}

/// The binary codec round-trips arbitrary nested data.
#[test]
fn codec_roundtrips_nested_data() {
    let mut rng = DetRng::new(0x1B).stream("codec-roundtrips");
    for case in 0..256 {
        let n = rng.gen_range(0u64..16);
        let v: Vec<(String, u64, Option<i32>, Vec<u8>)> = (0..n)
            .map(|_| {
                let s = random_string(&mut rng);
                let u = rng.next_u64();
                let o = rng.gen_bool(0.5).then(|| rng.next_u32() as i32);
                let blen = rng.gen_range(0u64..32);
                let mut b = vec![0u8; blen as usize];
                rng.fill_bytes(&mut b);
                (s, u, o, b)
            })
            .collect();
        let bytes = to_bytes(&v).unwrap();
        let back: Vec<(String, u64, Option<i32>, Vec<u8>)> = from_bytes(&bytes).unwrap();
        assert_eq!(back, v, "case={case}");
    }
}

/// Decoding arbitrary bytes as a structured type never panics — it
/// either succeeds or errors.
#[test]
fn codec_never_panics_on_garbage() {
    let mut rng = DetRng::new(0x1B).stream("codec-garbage");
    for _ in 0..256 {
        let len = rng.gen_range(0u64..256);
        let mut bytes = vec![0u8; len as usize];
        rng.fill_bytes(&mut bytes);
        let _ = from_bytes::<Vec<(String, u64)>>(&bytes);
        let _ = from_bytes::<Option<Vec<bool>>>(&bytes);
        let _ = from_bytes::<(u8, u16, u32, u64)>(&bytes);
    }
}

/// CRC-verified checkpoints detect arbitrary single-bit corruption.
#[test]
fn checkpoint_corruption_is_detected() {
    let mut rng = DetRng::new(0x1B).stream("checkpoint-corruption");
    for case in 0..256 {
        let counter = rng.next_u64();
        let label = random_string(&mut rng);
        let bit = rng.gen_range(0u64..512) as usize;
        let mut ckpt = synergy_storage::Checkpoint::encode(
            1,
            synergy_des::SimTime::ZERO,
            label,
            &(counter, vec![counter; 4]),
        )
        .unwrap();
        ckpt.corrupt_bit(bit);
        assert!(
            ckpt.decode::<(u64, Vec<u64>)>().is_err(),
            "case={case} bit={bit}"
        );
    }
}

/// Clock fleets never exceed their advertised deviation bound, at any
/// time, with or without resynchronization.
#[test]
fn clock_deviation_bound_holds() {
    use synergy_clocks::{ClockFleet, SyncParams};
    use synergy_des::{SimDuration, SimTime};
    let mut rng = DetRng::new(0x1B).stream("clock-deviation");
    for case in 0..256 {
        let seed = rng.next_u64();
        let delta_us = rng.gen_range(1u64..2_000);
        let rho_ppm = rng.gen_range(0u64..500);
        let probe_secs = rng.gen_range(0.0f64..500.0);
        let resync_at = rng.gen_bool(0.5).then(|| rng.gen_range(0.0f64..400.0));
        let params = SyncParams::new(SimDuration::from_micros(delta_us), rho_ppm as f64 * 1e-6);
        let mut fleet = ClockFleet::generate(3, params, &DetRng::new(seed));
        if let Some(at) = resync_at {
            if at < probe_secs {
                fleet.resync_all(SimTime::from_secs_f64(at));
            }
        }
        let t = SimTime::from_secs_f64(probe_secs);
        assert!(
            fleet.max_pairwise_deviation(t) <= fleet.deviation_bound_at(t),
            "case={case} seed={seed}"
        );
    }
}
