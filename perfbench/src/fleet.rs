//! `fleet-churn`: tenant missions multiplexed by `FleetManager` with 1,000
//! resident, driven by `step_pass` on the benchmark's thread. A completed
//! tenant is detached and replaced at once, so admission is continuous.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use synergy::{MissionId, Scheme, System, SystemConfig};
use synergy_des::DetRng;
use synergy_fleet::{device_payloads, FleetConfig, FleetManager, NullSink, TenantState};

use crate::fig7::{add_run_metrics, step_to_end};
use crate::meter::{Tracer, ROOT, SHARED_OP};
use crate::Report;

/// Tenants resident at once.
const RESIDENT: usize = 1000;
/// Events per tenant per scheduler pass.
const QUANTUM: usize = 256;
/// Mission length; faults at 150 s (hardware) and 99 s (design).
const DURATION_SECS: f64 = 300.0;
/// The mission family operations are drawn from: member `i` runs seed `i`
/// with `SystemConfig` default rates, a hardware fault when `7 | i` and a
/// design fault when `11 | i`. Of all 10,000 members exactly the two below
/// violate the paper's properties, on every run.
const FAMILY: u64 = 10_000;
/// Members that fail every time today (see `CHANGES.md`): seed 1210 breaks
/// recoverability; seed 7469 (also hardware-faulted) breaks validity-self,
/// recoverability and validity-ground-truth.
pub const KNOWN_FAILING: [u64; 2] = [1210, 7469];
/// Operations per round: the two failing members plus 498 others, so the
/// failed share is exactly 2/500 in every run.
const ROUND: usize = 500;
/// Rounds per second of `--seconds`, measured on a 2-core host.
const ROUNDS_PER_SECOND: f64 = 0.35;

/// The mission config of family member `i`, tagged as tenant `mission`.
pub fn config(i: u64, mission: MissionId) -> SystemConfig {
    let mut b = SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .mission(mission)
        .seed(i)
        .duration_secs(DURATION_SECS)
        .trace(false);
    if i.is_multiple_of(7) {
        b = b.hardware_fault_at_secs(hw_fault_at());
    }
    if i.is_multiple_of(11) {
        b = b.software_fault_at_secs(99.0);
    }
    b.build()
}

fn hw_fault_at() -> f64 {
    DURATION_SECS * 0.5
}

/// The members one run attaches, in order: `rounds` rounds, each the two
/// known-failing members plus `ROUND - 2` distinct others from a seeded
/// shuffle, in seeded order.
pub fn op_list(seed: u64, rounds: usize) -> Vec<u64> {
    let mut rng = DetRng::new(seed).stream("fleet-churn");
    let others: Vec<u64> = (1..=FAMILY)
        .filter(|i| !KNOWN_FAILING.contains(i))
        .collect();
    let mut ops = Vec::with_capacity(rounds * ROUND);
    for _ in 0..rounds {
        let mut round: Vec<u64> = crate::shuffled(others.clone(), &mut rng)
            .into_iter()
            .take(ROUND - KNOWN_FAILING.len())
            .collect();
        round.extend(KNOWN_FAILING);
        ops.extend(crate::shuffled(round, &mut rng));
    }
    ops
}

/// A resident tenant: which operation and family member it is, and when
/// its attach began.
struct Resident {
    op: u64,
    member: u64,
    started: Instant,
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Report {
    let rounds = ((seconds as f64 * ROUNDS_PER_SECOND).round() as usize).max(1);
    let ops = op_list(seed, rounds);
    let fleet = FleetManager::new(
        FleetConfig::default()
            .with_slots(RESIDENT)
            .with_workers(1)
            .with_quantum(QUANTUM)
            .with_capture(),
        Arc::new(NullSink::new()),
    );
    let mut report = Report::default();
    let mut resident: BTreeMap<MissionId, Resident> = BTreeMap::new();
    let mut next = 0usize;
    let mut reports = Vec::with_capacity(ops.len());
    let run_started = Instant::now();
    loop {
        // Admission: every free slot is refilled before the next pass.
        while next < ops.len() && resident.len() < RESIDENT {
            let op = next as u64;
            let member = ops[next];
            next += 1;
            let mission = MissionId(op + 1);
            let started = Instant::now();
            let attached = tracer.span(op, &ROOT, "fleet.attach", || {
                fleet.attach(config(member, mission))
            });
            report.setup_s.push(started.elapsed().as_secs_f64());
            report.attempted += 1;
            match attached {
                Ok(_) => {
                    resident.insert(
                        mission,
                        Resident {
                            op,
                            member,
                            started,
                        },
                    );
                }
                Err(e) => report.problem(format!("attach member {member}: {e}")),
            }
        }
        if resident.is_empty() {
            break;
        }
        // A pass serves every resident operation, so it carries the shared id.
        let pass = tracer.span(SHARED_OP, &ROOT, "fleet.pass", || fleet.step_pass());
        if pass.completed_now == 0 {
            continue;
        }
        let done: Vec<MissionId> = resident
            .keys()
            .copied()
            .filter(|&m| fleet.state(m).is_ok_and(|s| s == TenantState::Completed))
            .collect();
        for mission in done {
            let r = resident.remove(&mission).expect("resident");
            let detached = tracer.span(r.op, &ROOT, "fleet.detach", || fleet.detach(mission));
            report.op_ms.push(r.started.elapsed().as_secs_f64() * 1e3);
            match detached {
                Ok(tenant) => reports.push((r.member, tenant)),
                Err(e) => report.problem(format!("detach member {}: {e}", r.member)),
            }
        }
    }
    report.wall_s = run_started.elapsed().as_secs_f64();

    let stats = fleet.stats();
    report.set("fleet.stalls", stats.stalls() as f64);
    report.set("fleet.drops", stats.drops() as f64);
    let quanta: u64 = reports.iter().map(|(_, t)| t.stats.quanta).sum();
    report.set(
        "fleet.quanta_per_mission",
        quanta as f64 / reports.len().max(1) as f64,
    );
    check(&mut report, &reports);
    report
}

/// Checks every detached tenant and re-runs the hardware-faulted ones solo.
fn check(report: &mut Report, reports: &[(u64, synergy_fleet::TenantReport)]) {
    let mut failing = Vec::new();
    for (member, tenant) in reports {
        add_run_metrics(report, &tenant.metrics, tenant.stats.events);
        if tenant.stats.latency_ms <= 0.0 {
            report.problem(format!("member {member} detached before completing"));
        }
        if !tenant.verdicts_hold {
            report.failed += 1;
            failing.push(*member);
        }
        // Every hardware-faulted tenant is re-run as a standalone mission:
        // its metrics and device stream must equal the fleet's, and the
        // solo run's recovery step is timed for `recover_ms_p50`.
        if member.is_multiple_of(7) {
            let solo = System::new(config(*member, MissionId::SOLO));
            let stepped = step_to_end(solo, Some(hw_fault_at()), &mut Tracer::new(false), 0, &ROOT);
            report.recover_ms.extend(stepped.recover_ms);
            if stepped.system.metrics() != &tenant.metrics
                || device_payloads(&stepped.system) != tenant.captured
            {
                report.problem(format!("member {member}: fleet run differs from solo run"));
            }
        }
    }
    failing.sort_unstable();
    failing.dedup();
    if failing.iter().any(|m| !KNOWN_FAILING.contains(m)) {
        report.problem(format!("unexpected failing members {failing:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_holds_both_failing_members_once() {
        let ops = op_list(3, 2);
        assert_eq!(ops.len(), 2 * ROUND);
        for round in ops.chunks(ROUND) {
            let mut r = round.to_vec();
            r.sort_unstable();
            r.dedup();
            assert_eq!(r.len(), ROUND, "members repeat within a round");
            for m in KNOWN_FAILING {
                assert_eq!(round.iter().filter(|&&x| x == m).count(), 1);
            }
        }
        assert_eq!(op_list(3, 2), ops, "same seed, same inputs");
        assert_ne!(op_list(4, 2), ops, "another seed, other inputs");
    }
}
