#!/usr/bin/env python3
"""Builds and runs the synergy-ft benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

A run builds the benchmark package (offline, release) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset, stamps the
machine on one stdout line starting with '#', runs the workload, and passes
on the benchmark's result as the last stdout line. Data directories live
under the build directory and are removed when the run ends.

--selfcheck runs the benchmark's own tests, then every workload briefly,
traced and untraced, and fails unless every output check holds.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ["fig7-missions", "fleet-churn", "live-chaos", "delta-chain"]
# Operations that fail on every run today (see perfbench/README.md):
# two of every 500 fleet-churn missions.
EXPECTED_FAILED_SHARE = {"fleet-churn": 2 / 500}
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target")))


def build():
    """Builds both binaries; cargo's output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """A digest of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def filesystem_of(path):
    """The filesystem type holding `path`, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def stamp(data_dir):
    return "# perfbench machine: " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "data_fs": filesystem_of(data_dir),
    })


def run_workload(bin_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict or None, stdout lines)."""
    data_dir = os.path.join(target_dir(), "perfbench-data", f"{workload}-{os.getpid()}")
    os.makedirs(data_dir, exist_ok=True)
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
        "--node-bin", os.path.join(bin_dir, "perfbench-node"),
        "--data-dir", data_dir,
    ]
    # Its own process group, so a run cut by the timeout takes its cluster node
    # processes down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        lines = out.strip().splitlines()
        ok = proc.returncode == 0 and lines
        return (json.loads(lines[-1]) if ok else None), [stamp(data_dir)] + lines
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None, []
    finally:
        if trace:
            spans = os.path.join(data_dir, f"spans-{workload}.jsonl")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(target_dir(), f"spans-{workload}-seed{seed}.jsonl"))
        shutil.rmtree(data_dir, ignore_errors=True)


def selfcheck(bin_dir):
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--manifest-path", MANIFEST],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    ok = tests.returncode == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_workload(bin_dir, workload, seed=1, seconds=1, trace=trace)
            good = (result is not None and result["correct"]
                    and result["failed"] <= round(EXPECTED_FAILED_SHARE.get(workload, 0) * result["attempted"]))
            print(f"selfcheck {workload} trace={trace}: {'ok' if good else 'FAILED'} {json.dumps(result)}")
            ok = ok and good
    print("selfcheck: " + ("all checks hold" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    if not a.selfcheck and (a.workload is None or a.seed is None or a.seconds is None):
        p.error("--workload, --seed and --seconds are required")
    bin_dir = build()
    if a.selfcheck:
        return selfcheck(bin_dir)
    result, lines = run_workload(bin_dir, a.workload, a.seed, a.seconds, a.trace)
    if result is None:
        sys.exit(f"perfbench: {a.workload} produced no result")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
