//! `live-chaos`: one `CampaignSpec::generate` campaign per operation
//! against the three-process cluster on the reactor wire, one campaign at
//! a time: `Cluster::launch`, `Cluster::run`, `simulate_reference_schedule`,
//! then a byte comparison of the device streams.

use std::path::Path;
use std::time::Instant;

use synergy_archive::DeltaStable;
use synergy_chaos::{CampaignSpec, CampaignToggles};
use synergy_cluster::{simulate_reference_schedule, Cluster, ClusterConfig, CrashEvent};
use synergy_storage::{DiskStableStore, Stable};

use crate::meter::{cpu_ms, median, Tracer, ROOT};
use crate::Report;

/// Rounds per second of `--seconds`, measured on a 2-core host.
const ROUNDS_PER_SECOND: f64 = 0.3;
/// Produce steps `CampaignSpec::generate` draws from; a round holds one
/// campaign of each, because a campaign's wall time grows with its steps
/// and a run of ~30 campaigns drawn freely varies too much in its mix.
const STEPS: std::ops::RangeInclusive<u32> = 5..=9;
/// Records a node keeps on disk in delta mode (the node's own setting).
const DELTA_DISK_RETAIN: usize = 64;

/// The cluster configuration a campaign spec describes — the mapping
/// `synergy_chaos::run_campaign` applies.
fn cluster_config(spec: &CampaignSpec, node_bin: &Path, run_dir: &Path) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        spec.seed,
        spec.steps,
        spec.tb_interval_secs,
        node_bin.to_path_buf(),
        run_dir.to_path_buf(),
    );
    cfg.crashes.extend(spec.crash);
    cfg.internal_traffic = spec.internal_traffic;
    cfg.link_plan = spec.link.clone();
    cfg.disk_plans = spec.disk.clone();
    cfg.bitrot = spec.bitrot;
    cfg.delta_k = spec.delta_k;
    cfg.archive_plans = spec.archive.clone();
    cfg.wipe = spec.wipe;
    cfg.deltarot = spec.deltarot;
    cfg.transport = spec.transport;
    cfg.corrupt = spec.corrupt;
    cfg
}

/// Reopens a stopped node's local store cold, as a restarted node does,
/// and returns the newest epoch it recovers.
fn reopen(dir: &Path, delta_k: u32) -> Result<Option<u64>, String> {
    let disk = DiskStableStore::open_with_retention(dir, DELTA_DISK_RETAIN)
        .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    Ok(if delta_k > 0 {
        DeltaStable::open_with_retention(disk, delta_k, DELTA_DISK_RETAIN).latest_seq()
    } else {
        disk.latest_seq()
    })
}

/// The campaigns one run executes: `rounds` rounds, each one campaign of
/// every step count, taken in index order from the sweep rooted at `seed`.
pub fn op_list(seed: u64, rounds: usize) -> Vec<CampaignSpec> {
    let mut buckets: Vec<Vec<CampaignSpec>> = STEPS.map(|_| Vec::new()).collect();
    let mut index = 0;
    while buckets.iter().any(|b| b.len() < rounds) {
        let spec = CampaignSpec::generate(seed, index, CampaignToggles::default());
        let bucket = &mut buckets[(spec.steps - STEPS.start()) as usize];
        if bucket.len() < rounds {
            bucket.push(spec);
        }
        index += 1;
    }
    (0..rounds)
        .flat_map(|r| buckets.iter().map(move |b| b[r].clone()))
        .collect()
}

/// Runs the workload.
pub fn run(
    seed: u64,
    seconds: u64,
    node_bin: &Path,
    data_dir: &Path,
    tracer: &mut Tracer,
) -> Report {
    let rounds = ((seconds as f64 * ROUNDS_PER_SECOND).round() as usize).max(1);
    let mut report = Report::default();
    let mut node_cpu = Vec::new();
    let mut own_cpu = Vec::new();
    let mut wait = Vec::new();
    let started = Instant::now();
    for (op, spec) in op_list(seed, rounds).into_iter().enumerate() {
        let op = op as u64;
        let run_dir = data_dir.join(format!("campaign-{op}"));
        let _ = std::fs::remove_dir_all(&run_dir);
        report.attempted += 1;

        let root = tracer.begin(op, &ROOT, "op");
        let op_started = Instant::now();
        let (own0, children0) = cpu_ms();
        let launched = tracer.span(op, &root, "cluster.launch", || {
            Cluster::launch(cluster_config(&spec, node_bin, &run_dir))
        });
        report.setup_s.push(op_started.elapsed().as_secs_f64());
        let ran = launched.and_then(|c| tracer.span(op, &root, "cluster.run", || c.run()));
        let live_ms = op_started.elapsed().as_secs_f64() * 1e3;
        let (own1, children1) = cpu_ms();
        let cluster = match ran {
            Ok(r) => r,
            Err(e) => {
                tracer.end(root);
                report.failed += 1;
                eprintln!("live-chaos: campaign {op} aborted: {e}");
                continue;
            }
        };
        let crashes: Vec<CrashEvent> = spec.crash.into_iter().collect();
        let reference = tracer.span(op, &root, "cluster.reference", || {
            simulate_reference_schedule(
                spec.seed,
                spec.steps,
                spec.tb_interval_secs,
                spec.internal_traffic,
                &crashes,
            )
        });
        let identical = tracer.span(op, &root, "cluster.compare", || {
            cluster.device_payloads == reference.device_payloads
        });
        report.op_ms.push(op_started.elapsed().as_secs_f64() * 1e3);
        tracer.end(root);
        node_cpu.push(children1 - children0);
        own_cpu.push(own1 - own0);
        wait.push(live_ms - (children1 - children0) - (own1 - own0));

        let mut lost = 0;
        for (_, s) in &cluster.final_status {
            lost += s.chaos_lost;
            report.add("net.delivered", s.delivered as f64);
            report.add("net.chaos_drops", s.chaos_drops as f64);
            report.add("net.chaos_dups", s.chaos_dups as f64);
            report.add("net.backpressure", s.backpressure as f64);
            report.add("storage.stable_retries", s.stable_retries as f64);
            report.add("archive.uploads", s.archive_uploads as f64);
            report.add("archive.failures", s.archive_failures as f64);
            report.add("archive.rehydrated", s.rehydrated as f64);
        }
        for k in &cluster.kills {
            report.add("storage.torn_writes", k.reload_torn_writes as f64);
            report.add("storage.corrupt_records", k.reload_corrupt_records as f64);
            report.add("cluster.rollback_epochs", k.rollback_epochs as f64);
        }
        report.add("cluster.recoveries", cluster.kills.len() as f64);

        if !identical {
            report.failed += 1;
            eprintln!("live-chaos: campaign {op} diverged from the simulator reference");
        } else {
            if lost != 0 {
                report.problem(format!(
                    "campaign {op}: {lost} frames lost by the chaos wire"
                ));
            }
            if cluster.kills.len() != crashes.len() {
                report.problem(format!(
                    "campaign {op}: {} recoveries for {} scheduled crashes",
                    cluster.kills.len(),
                    crashes.len()
                ));
            }
        }

        // Cold recovery: each node's store reopened as a restarted node would.
        for node in 0..3 {
            let dir = run_dir.join(format!("node-{node}"));
            let reopen_started = Instant::now();
            match reopen(&dir, spec.delta_k) {
                Ok(Some(_)) => report
                    .recover_ms
                    .push(reopen_started.elapsed().as_secs_f64() * 1e3),
                Ok(None) => report.problem(format!("campaign {op}: node {node} recovered nothing")),
                Err(e) => report.problem(format!("campaign {op}: {e}")),
            }
        }
        let _ = std::fs::remove_dir_all(&run_dir);
    }
    report.wall_s = started.elapsed().as_secs_f64();
    report.set("cluster.node_cpu_ms", median(&node_cpu));
    report.set("cluster.orchestrator_cpu_ms", median(&own_cpu));
    report.set("cluster.wait_ms", median(&wait));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_holds_one_campaign_of_each_step_count() {
        let ops = op_list(5, 3);
        assert_eq!(ops.len(), 15);
        for round in ops.chunks(5) {
            let steps: Vec<u32> = round.iter().map(|s| s.steps).collect();
            assert_eq!(steps, STEPS.collect::<Vec<_>>());
        }
        let seeds: std::collections::BTreeSet<u64> = ops.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), ops.len(), "campaigns repeat");
        assert_eq!(op_list(5, 3), ops, "same seed, same inputs");
    }
}
