//! `delta-chain`: stable checkpoints of a 1 MiB state with 4 KiB dirtied
//! per round, through `Checkpoint::encode` and the two-phase write of
//! `DeltaStable<DiskStableStore>` at k = 16. Each cycle opens a fresh store,
//! commits a fixed number of rounds, then reopens it cold and walks the
//! chain to its newest image.

use std::path::Path;
use std::time::Instant;

use synergy_archive::DeltaStable;
use synergy_des::{DetRng, SimTime};
use synergy_storage::{Checkpoint, DiskStableStore, Stable};

use crate::meter::{Tracer, ROOT};
use crate::Report;

const STATE_BYTES: usize = 1 << 20;
const DIRTY_BYTES: usize = 4096;
/// Full image every `K` commits, deltas between.
const K: u32 = 16;
/// Rounds per cycle; the store keeps them all, so the cold walk replays
/// two full images and the deltas chained on them.
const ROUNDS_PER_CYCLE: u64 = 32;
/// Cycles per second of `--seconds`, measured on a 2-core host.
const CYCLES_PER_SECOND: f64 = 2.2;

/// Dirties one 4 KiB page of `state`, chosen by `rng`, with fresh bytes.
pub fn mutate(state: &mut [u8], rng: &mut DetRng) {
    let pages = (state.len() / DIRTY_BYTES) as u64;
    let offset = rng.gen_range(0..pages) as usize * DIRTY_BYTES;
    rng.fill_bytes(&mut state[offset..offset + DIRTY_BYTES]);
}

/// Opens (or reopens) the chain in `dir`.
fn open(dir: &Path) -> Result<DeltaStable<DiskStableStore>, String> {
    let retain = ROUNDS_PER_CYCLE as usize;
    let disk = DiskStableStore::open_with_retention(dir, retain)
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    Ok(DeltaStable::open_with_retention(disk, K, retain))
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, data_dir: &Path, tracer: &mut Tracer) -> Report {
    let cycles = ((seconds as f64 * CYCLES_PER_SECOND).round() as u64).max(1);
    let mut rng = DetRng::new(seed).stream("delta-chain");
    let mut state = vec![0u8; STATE_BYTES];
    rng.fill_bytes(&mut state);
    let mut report = Report::default();
    let (mut encoded_bytes, mut commits, mut walked) = (0u64, 0u64, 0usize);
    let started = Instant::now();
    for cycle in 0..cycles {
        let dir = data_dir.join(format!("chain-{cycle}"));
        let _ = std::fs::remove_dir_all(&dir);
        let first_op = cycle * ROUNDS_PER_CYCLE;
        let open_started = Instant::now();
        let opened = tracer.span(first_op, &ROOT, "storage.open", || open(&dir));
        report.setup_s.push(open_started.elapsed().as_secs_f64());
        let mut store = match opened {
            Ok(s) => s,
            Err(e) => {
                report.attempted += ROUNDS_PER_CYCLE;
                report.failed += ROUNDS_PER_CYCLE;
                eprintln!("delta-chain: {e}");
                continue;
            }
        };
        let mut image_bytes = 0u64;
        for round in 1..=ROUNDS_PER_CYCLE {
            let op = first_op + round - 1;
            mutate(&mut state, &mut rng);
            report.attempted += 1;
            let root = tracer.begin(op, &ROOT, "op");
            let op_started = Instant::now();
            let encoded = tracer.span(op, &root, "storage.encode", || {
                Checkpoint::encode(round, SimTime::from_nanos(round), "perfbench", &state)
            });
            let written = encoded.map_err(|e| e.to_string()).and_then(|ckpt| {
                image_bytes = ckpt.size_bytes() as u64;
                tracer
                    .span(op, &root, "archive.commit", || {
                        store.begin_write(ckpt)?;
                        store.commit_write()
                    })
                    .map_err(|e| e.to_string())
            });
            report.op_ms.push(op_started.elapsed().as_secs_f64() * 1e3);
            tracer.end(root);
            if let Err(e) = written {
                report.failed += 1;
                eprintln!("delta-chain: round {round}: {e}");
            }
        }
        let stats = store.delta_stats();
        encoded_bytes += stats.encoded_bytes;
        commits += stats.full_records + stats.delta_records;
        report.add("archive.full_records", stats.full_records as f64);
        report.add("archive.delta_records", stats.delta_records as f64);
        // Record files a full image would fill, counted on disk apart from
        // the store's own counters: every delta record must be smaller.
        let sizes: Vec<u64> = std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok()?.metadata().ok().map(|m| m.len()))
            .collect();
        let full_files = sizes.iter().filter(|&&b| b >= image_bytes).count() as u64;
        if full_files != stats.full_records || sizes.len() as u64 != ROUNDS_PER_CYCLE {
            report.problem(format!(
                "cycle {cycle}: {full_files} of {} record files hold a full image, expected {}",
                sizes.len(),
                stats.full_records
            ));
        }
        drop(store);

        // Cold recovery: reopen the directory and walk to the newest image.
        let reload_started = Instant::now();
        let reloaded = tracer.span(first_op, &ROOT, "archive.reload", || {
            open(&dir).map(|s| {
                let records = s.inner().committed_shared().len();
                (s.delta_stats().chain_orphans, s.latest_shared(), records)
            })
        });
        report
            .recover_ms
            .push(reload_started.elapsed().as_secs_f64() * 1e3);
        match reloaded {
            Ok((orphans, latest, records)) => {
                walked += records;
                if orphans != 0 {
                    report.problem(format!("cycle {cycle}: {orphans} chain orphans"));
                }
                let image = latest.and_then(|c| c.decode::<Vec<u8>>().ok());
                if image.as_deref() != Some(&state[..]) {
                    report.problem(format!("cycle {cycle}: reload differs from the state held"));
                }
            }
            Err(e) => report.problem(format!("cycle {cycle}: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    report.wall_s = started.elapsed().as_secs_f64();
    report.set("archive.reload_records", walked as f64 / cycles as f64);
    report.set(
        "archive.bytes_per_commit",
        encoded_bytes as f64 / commits.max(1) as f64,
    );
    report
}
