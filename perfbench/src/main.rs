//! End-to-end and per-layer benchmark of synergy-ft.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --node-bin <path> --data-dir <dir>
//! ```
//!
//! Runs one workload's fixed operation list (generated from the seed; its
//! length from `--seconds`), checks the program's outputs, and prints one
//! JSON line: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
//! A traced run also writes its spans to `<data-dir>/spans-<workload>.jsonl`.
//! `perfbench/run.py` builds this binary and supplies the paths.

mod chaos;
mod delta;
mod fig7;
mod fleet;
mod meter;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use synergy_des::DetRng;

use meter::{median, tail, Tracer};

#[global_allocator]
static ALLOCATOR: meter::CountingAlloc = meter::CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["fig7-missions", "fleet-churn", "live-chaos", "delta-chain"];

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("recover_ms_p50", "ms"),
];

/// Per-layer metrics: `(name, unit)`. Every traced run prints all of them;
/// a layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("core.system_new_us", "us"),
    ("core.step_ms", "ms"),
    ("core.ns_per_event", "ns"),
    ("des.events", "count"),
    ("alloc.count", "count"),
    ("alloc.bytes", "bytes"),
    ("net.messages_sent", "count"),
    ("net.messages_delivered", "count"),
    ("net.messages_resent", "count"),
    ("net.messages_replayed", "count"),
    ("mdcd.at_runs", "count"),
    ("mdcd.volatile_ckpts", "count"),
    ("tb.stable_commits", "count"),
    ("tb.stable_replacements", "count"),
    ("tb.blocking_periods", "count"),
    ("clocks.resyncs", "count"),
    ("core.recoveries", "count"),
    ("tb.blocking_sim_ms", "ms"),
    ("fleet.attach_us", "us"),
    ("fleet.pass_ms", "ms"),
    ("fleet.quanta_per_mission", "count"),
    ("fleet.detach_us", "us"),
    ("fleet.stalls", "count"),
    ("fleet.drops", "count"),
    ("cluster.launch_ms", "ms"),
    ("cluster.run_ms", "ms"),
    ("cluster.reference_ms", "ms"),
    ("cluster.node_cpu_ms", "ms"),
    ("cluster.orchestrator_cpu_ms", "ms"),
    ("cluster.wait_ms", "ms"),
    ("net.delivered", "count"),
    ("net.chaos_drops", "count"),
    ("net.chaos_dups", "count"),
    ("net.backpressure", "count"),
    ("storage.stable_retries", "count"),
    ("storage.torn_writes", "count"),
    ("storage.corrupt_records", "count"),
    ("archive.uploads", "count"),
    ("archive.failures", "count"),
    ("archive.rehydrated", "count"),
    ("cluster.recoveries", "count"),
    ("cluster.rollback_epochs", "count"),
    ("storage.open_ms", "ms"),
    ("storage.encode_ms", "ms"),
    ("archive.commit_ms", "ms"),
    ("archive.bytes_per_commit", "bytes"),
    ("archive.full_records", "count"),
    ("archive.delta_records", "count"),
    ("archive.reload_ms", "ms"),
    ("archive.reload_records", "count"),
    ("trace.spans", "count"),
    ("trace.op_ms_p50", "ms"),
];

/// What one workload run measured and found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or whose output violates the paper's
    /// properties.
    pub failed: u64,
    /// Output checks that did not hold on operations that did not fail.
    pub problems: Vec<String>,
    /// Seconds of the set-up call each operation (or cycle) makes.
    pub setup_s: Vec<f64>,
    /// Milliseconds per completed operation.
    pub op_ms: Vec<f64>,
    /// Milliseconds per cold recovery.
    pub recover_ms: Vec<f64>,
    /// Wall time of the operation loop.
    pub wall_s: f64,
    /// Per-layer values measured apart from spans.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a failed output check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Sets a per-layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Adds to a per-layer counter.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_default() += value;
    }
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffled<T>(mut v: Vec<T>, rng: &mut DetRng) -> Vec<T> {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..(i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    node_bin: PathBuf,
    data_dir: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut node_bin, mut data_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.clamp(1, 600)),
            "--trace" => trace = Some(num(&value)? != 0),
            "--node-bin" => node_bin = Some(PathBuf::from(value)),
            "--data-dir" => data_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        node_bin: node_bin.ok_or("--node-bin is required")?,
        data_dir: data_dir.ok_or("--data-dir is required")?,
    })
}

/// The end-to-end metrics of a report.
fn end_to_end(r: &Report) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", median(&r.setup_s)),
        ("op_ms_p50", median(&r.op_ms)),
        ("op_ms_tail", tail(&r.op_ms)),
        ("ops_per_s", r.op_ms.len() as f64 / r.wall_s.max(1e-9)),
        ("peak_rss_mb", meter::peak_rss_mb()),
        ("recover_ms_p50", median(&r.recover_ms)),
    ])
}

/// The per-layer metrics of a traced report: span-derived timings plus the
/// counters the workload collected.
fn per_layer(r: &Report, t: &Tracer, allocs: (u64, u64)) -> BTreeMap<&'static str, f64> {
    let mut m = r.layers.clone();
    let med = |name: &str| median(&t.durations_ms(name));
    m.insert("core.system_new_us", med("core.system_new") * 1e3);
    let step_ms = t.per_op_ms("core.step_events");
    if !step_ms.is_empty() {
        m.insert("core.step_ms", median(&step_ms));
        let events = r.layers.get("des.events").copied().unwrap_or(0.0);
        m.insert(
            "core.ns_per_event",
            step_ms.iter().sum::<f64>() * 1e6 / events.max(1.0),
        );
    }
    m.insert("alloc.count", allocs.0 as f64);
    m.insert("alloc.bytes", allocs.1 as f64);
    m.insert("fleet.attach_us", med("fleet.attach") * 1e3);
    m.insert("fleet.pass_ms", med("fleet.pass"));
    m.insert("fleet.detach_us", med("fleet.detach") * 1e3);
    m.insert("cluster.launch_ms", med("cluster.launch"));
    m.insert("cluster.run_ms", med("cluster.run"));
    m.insert("cluster.reference_ms", med("cluster.reference"));
    m.insert("storage.open_ms", med("storage.open"));
    m.insert("storage.encode_ms", med("storage.encode"));
    m.insert("archive.commit_ms", med("archive.commit"));
    m.insert("archive.reload_ms", med("archive.reload"));
    m.insert("trace.spans", t.spans().len() as f64);
    // Against the untraced run's `op_ms_p50`, the tracing overhead.
    m.insert("trace.op_ms_p50", median(&r.op_ms));
    m
}

/// The result line: one JSON object.
fn result_json(correct: bool, r: &Report, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.attempted, r.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.data_dir) {
        eprintln!("perfbench: {}: {e}", args.data_dir.display());
        return ExitCode::FAILURE;
    }
    let mut tracer = Tracer::new(args.trace);
    let allocs_before = meter::allocs();
    let report = match args.workload.as_str() {
        "fig7-missions" => fig7::run(args.seed, args.seconds, &mut tracer),
        "fleet-churn" => fleet::run(args.seed, args.seconds, &mut tracer),
        "live-chaos" => chaos::run(
            args.seed,
            args.seconds,
            &args.node_bin,
            &args.data_dir,
            &mut tracer,
        ),
        _ => delta::run(args.seed, args.seconds, &args.data_dir, &mut tracer),
    };
    let allocs_after = meter::allocs();
    let allocs = (
        allocs_after.0 - allocs_before.0,
        allocs_after.1 - allocs_before.1,
    );
    for p in report.problems.iter().take(20) {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = report.problems.is_empty() && report.attempted > 0;
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let path = args.data_dir.join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
            eprintln!("perfbench: {}: {e}", path.display());
        }
        let values = per_layer(&report, &tracer, allocs);
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, values.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = end_to_end(&report);
        END_TO_END.iter().map(|&(n, u)| (n, u, values[n])).collect()
    };
    println!("{}", result_json(correct, &report, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn args_need_every_flag_and_a_known_workload() {
        let ok =
            args("--workload delta-chain --seed 3 --seconds 5 --trace 1 --node-bin n --data-dir d")
                .expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 5, true));
        assert!(args("--workload nope --seed 3 --seconds 5 --node-bin n --data-dir d").is_err());
        assert!(args("--workload delta-chain --seconds 5 --node-bin n --data-dir d").is_err());
        assert!(args("--workload delta-chain --seed x --seconds 5").is_err());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled((0..100).collect(), &mut DetRng::new(1));
        let b = shuffled((0..100).collect(), &mut DetRng::new(1));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }

    #[test]
    fn result_line_holds_exactly_the_four_keys() {
        let r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        let line = result_json(true, &r, &[("setup_s", "s", 0.25), ("x", "ms", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn metric_tables_match_the_benchmark_definition() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                spec.contains(&needle),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }
}
