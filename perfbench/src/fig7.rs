//! `fig7-missions`: Coordinated Figure-7 missions, one per operation, run
//! on the benchmark's thread through `System::new` and `System::step_events`.

use synergy::{Scheme, System, SystemConfig};
use synergy_des::DetRng;

use crate::meter::{Open, Tracer, ROOT};
use crate::Report;

/// Figure 7 mission shape: 900 s, Δ = 2 s, external 2/min per component.
const DURATION_SECS: f64 = 900.0;
const TB_INTERVAL_SECS: f64 = 2.0;
const EXTERNAL_PER_MIN: f64 = 2.0;
/// The mission family operations are drawn from. Member `i` runs seed `i`
/// at internal rate `60 + 20·(i mod 8)` per hour, with its hardware fault
/// at `D·(0.55 + 0.3·j/20)`, `j = (i div 8) mod 20` — the Figure-7 sweep's
/// rates and fault placement (`crates/bench`), 1,000 seeds per rate.
const FAMILY: u64 = 8000;
/// Family members whose mission violates recoverability on every run (see
/// `CHANGES.md`). Whether a run draws such a member depends on its seed,
/// which would make the failed share depend on the seed, so the family
/// leaves it out.
const EXCLUDED: [u64; 1] = [5567];
/// Missions per second of `--seconds`, measured on a 2-core host.
const OPS_PER_SECOND: f64 = 190.0;
/// Events per `step_events` call: the fleet's quantum.
const QUANTUM: usize = 256;

/// The Figure-7 mission config of family member `i`.
pub fn config(i: u64) -> (SystemConfig, f64) {
    let rate_per_hour = 60.0 + 20.0 * (i % 8) as f64;
    let fault_at = DURATION_SECS * (0.55 + 0.3 * ((i / 8) % 20) as f64 / 20.0);
    let cfg = SystemConfig::builder()
        .scheme(Scheme::Coordinated)
        .seed(i)
        .duration_secs(DURATION_SECS)
        .internal_rate_per_min(rate_per_hour / 60.0)
        .external_rate_per_min(EXTERNAL_PER_MIN)
        .tb_interval_secs(TB_INTERVAL_SECS)
        .hardware_fault_at_secs(fault_at)
        .trace(false)
        .build();
    (cfg, fault_at)
}

/// The members one run executes, in order: `n` distinct members drawn by
/// a seeded shuffle of the family.
pub fn op_list(seed: u64, n: usize) -> Vec<u64> {
    let members: Vec<u64> = (1..=FAMILY).filter(|i| !EXCLUDED.contains(i)).collect();
    crate::shuffled(members, &mut DetRng::new(seed).stream("fig7-missions"))
        .into_iter()
        .take(n)
        .collect()
}

/// What stepping one mission to its end observed.
pub struct Stepped {
    /// The finished mission.
    pub system: System,
    /// Events fired.
    pub events: u64,
    /// Host time of the step that ran the global hardware recovery, in ms.
    pub recover_ms: Option<f64>,
}

/// Steps `system` to its end in quanta of [`QUANTUM`] events, timing each
/// quantum as a `core.step_events` span. Near `fault_at` it steps one event
/// at a time until the hardware recovery has run, and times that step.
pub fn step_to_end(
    mut system: System,
    fault_at: Option<f64>,
    tracer: &mut Tracer,
    op: u64,
    parent: &Open,
) -> Stepped {
    let mut events = 0u64;
    let mut recover_ms = None;
    while !system.finished() {
        // Within 30 simulated seconds of a pending fault, step one event at
        // a time so the recovery lands in a step of its own.
        let close = system.metrics().hardware_recoveries == 0
            && fault_at.is_some_and(|t| system.now().as_secs_f64() >= t - 30.0);
        let budget = if close { 1 } else { QUANTUM };
        let started = close.then(std::time::Instant::now);
        events += tracer.span(op, parent, "core.step_events", || {
            system.step_events(budget)
        }) as u64;
        if let Some(started) = started {
            if system.metrics().hardware_recoveries > 0 {
                recover_ms = Some(started.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    Stepped {
        system,
        events,
        recover_ms,
    }
}

/// Adds one finished mission's `RunMetrics` to the per-layer counters.
pub fn add_run_metrics(report: &mut Report, m: &synergy::RunMetrics, events: u64) {
    let mut add = |k: &'static str, v: u64| *report.layers.entry(k).or_default() += v as f64;
    add("des.events", events);
    add("net.messages_sent", m.messages_sent);
    add("net.messages_delivered", m.messages_delivered);
    add("net.messages_resent", m.messages_resent);
    add("net.messages_replayed", m.messages_replayed);
    add("mdcd.at_runs", m.at_runs);
    add("mdcd.volatile_ckpts", m.volatile_total());
    add("tb.stable_commits", m.stable_commits);
    add("tb.stable_replacements", m.stable_replacements);
    add("tb.blocking_periods", m.blocking_periods);
    add("clocks.resyncs", m.resyncs);
    add(
        "core.recoveries",
        m.software_recoveries + m.hardware_recoveries,
    );
    *report.layers.entry("tb.blocking_sim_ms").or_default() += m.blocking_total.as_secs_f64() * 1e3;
}

/// The longest blocking period, computed by the benchmark from the
/// parameters it passed in: `δ + 2ρ·D + tmax`, since `τ ≤ D`.
fn max_blocking_period(cfg: &SystemConfig) -> f64 {
    let d = cfg.duration.as_secs_f64();
    cfg.sync.delta.as_secs_f64() + 2.0 * cfg.sync.rho * d + cfg.tmax.as_secs_f64()
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Report {
    let n = ((seconds as f64 * OPS_PER_SECOND) as usize).max(1);
    let ops = op_list(seed, n);
    let mut report = Report::default();
    let started = std::time::Instant::now();
    for (op, &member) in ops.iter().enumerate() {
        let op = op as u64;
        let (cfg, fault_at) = config(member);
        let max_period = max_blocking_period(&cfg);
        let root = tracer.begin(op, &ROOT, "op");
        let op_started = std::time::Instant::now();
        let system = tracer.span(op, &root, "core.system_new", || System::new(cfg));
        report.setup_s.push(op_started.elapsed().as_secs_f64());
        let stepped = step_to_end(system, Some(fault_at), tracer, op, &root);
        report.op_ms.push(op_started.elapsed().as_secs_f64() * 1e3);
        tracer.end(root);

        report.attempted += 1;
        let m = stepped.system.metrics();
        add_run_metrics(&mut report, m, stepped.events);
        report.recover_ms.extend(stepped.recover_ms);
        if !stepped.system.verdicts().all_hold() {
            report.failed += 1;
            continue;
        }
        if m.hardware_recoveries != 1 {
            report.problem(format!(
                "member {member}: {} hardware recoveries, expected 1",
                m.hardware_recoveries
            ));
        }
        let bound = max_period * m.blocking_periods as f64;
        if m.blocking_total.as_secs_f64() > bound {
            report.problem(format!(
                "member {member}: blocking {:?} over {} periods exceeds δ+2ρD+tmax bound {bound} s",
                m.blocking_total, m.blocking_periods
            ));
        }
    }
    report.wall_s = started.elapsed().as_secs_f64();
    report
}
