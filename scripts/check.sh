#!/usr/bin/env bash
# Repo quality gate: formatting, lints, and the tier-1 build/test pass.
# Run from anywhere; everything happens at the workspace root, offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> chaos smoke: 4 fixed-seed campaigns against the live cluster"
# Deterministic and fast (≤30 s even on slow machines): the release build
# above produced the cluster binaries, and base seed 7 is the same fixed
# spec family the chaos crate's own smoke test replays.
./target/release/synergy-chaos --seeds 4 --base-seed 7 --jobs 2

echo "==> archive smoke: delta-chain, wipe-rehydration and archive-fault campaigns"
# Base seed 1's first 8 campaigns draw every archive axis: delta cadences
# k ∈ {1,2,4}, a mid-run wiped data directory rehydrated from the archive
# tier, object-store outages, and faulty PUTs — each run byte-checked
# against the simulator reference like every other campaign.
./target/release/synergy-chaos --seeds 8 --base-seed 1 --jobs 4

echo "==> unmasked-regime smoke: 4 seeds per regime + live Byzantine campaigns"
# Sweeps the four unmasked regimes (caught / escape / resync / byzantine)
# in the simulator and runs the live-cluster Byzantine campaigns, each
# classified into exactly one RegimeVerdict; fails on any silent escape,
# any worse-than-expected verdict, or a non-reproducible row.
./target/release/synergy-chaos --regime --seeds 4 --base-seed 5 --jobs 2

echo "==> fleet smoke: 100 seeded tenants, 4 verified against solo runs"
# Deterministic: seeded missions, and --verify re-runs a sample of tenants
# as standalone simulator missions and diffs device streams byte-for-byte.
./target/release/synergy-fleet --tenants 100 --seed 7 --duration-secs 30 --verify 4 > /dev/null

echo "==> benches compile: cargo bench --no-run"
cargo bench --no-run -q

echo "==> bench.sh smoke (1 sample, small wire and fleet runs, throwaway record)"
smoke_json="$(mktemp --suffix=.json)"
trap 'rm -f "$smoke_json"' EXIT
BENCH_WIRE_FRAMES=2000 BENCH_FLEET_TENANTS=100 \
    BENCH_CHECKPOINT_ROUNDS=8 BENCH_CHECKPOINT_STATE_KIB=64 \
    BENCH_REGIME_SEEDS=2 \
    scripts/bench.sh smoke 1 "$smoke_json" > /dev/null
grep -q '"ms_per_mission"' "$smoke_json"
grep -q '"wire"' "$smoke_json"
grep -q '"fleet"' "$smoke_json"
grep -q '"checkpoint"' "$smoke_json"
grep -q '"regimes"' "$smoke_json"

echo "OK: fmt, clippy, tier-1 and bench smoke all passed"
