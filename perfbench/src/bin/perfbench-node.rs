//! The cluster node process the live-chaos workload launches: the same
//! entry point as `synergy-node`, built inside this package so one
//! `cargo build` of the benchmark produces every binary it runs.

use std::process::ExitCode;

use synergy_cluster::{run_node, NodeOpts};

fn main() -> ExitCode {
    let opts = match NodeOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench-node: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_node(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-node (pid {}): {e}", opts.pid);
            ExitCode::FAILURE
        }
    }
}
