#!/usr/bin/env python3
"""Builds and runs the monitoring-loop benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload steady_hold --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (a Cargo package of its own) in release mode, runs two
set-up-only child processes and then the measured run as a third child,
reads the measured child's peak RSS from the kernel's rusage record, and
prints every metric; `setup_s` is the median of the three set-ups. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
`metrics` holds the `end_to_end` metrics of BENCHMARK.json (`--trace 0`)
or its `per_layer` metrics (`--trace 1`). A record of the run, with the
core count, a digest of the sources and the seed, is written under
`perfbench/out/`; traced runs also write their spans there.

Workloads and metrics are described in perfbench/WORKLOADS.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Children still running this long after the build are killed, and the
# run fails.
RUN_LIMIT_S = 160
# Set-ups per run: the measured run's own plus this many in fresh
# processes; `setup_s` is their median.
EXTRA_SETUPS = 2
# Trees whose contents the source digest covers.
SOURCE_TREES = ("crates", "vendor", "perfbench")
SKIP_DIRS = {"out", "target", ".bench_build", "__pycache__"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over every source file the benchmark builds from.

    Stands in for the commit id: benchmark checkouts carry no git
    metadata, and two checkouts of one commit give the same digest.
    """
    h = hashlib.sha256()
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for tree in SOURCE_TREES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, tree)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if not os.path.isfile(path):
            continue
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def build():
    """Builds the benchmark; returns the binary's path or None."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        log(f"build failed ({result.returncode})")
        return None
    return os.path.join(ROOT, target, "release", "fbd-perfbench")


def run_child(cmd, deadline):
    """Runs the benchmark binary; returns (exit code, stdout, peak RSS MiB)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        proc.stdout.close()
        # wait4 reaps this child alone and returns its own rusage record.
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is the child's peak resident set (VmHWM), in KiB on Linux.
    return proc.returncode, out, rusage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    traced = args.trace == "1"
    wanted = spec["per_layer" if traced else "end_to_end"]

    binary = build()
    if binary is None:
        return 1
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for _ in range(EXTRA_SETUPS):
        code, out, _ = run_child(cmd + ["--setup-only"], deadline)
        try:
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        except (IndexError, ValueError, KeyError):
            log(f"set-up run printed no result (exit code {code})")
            return 1
    if traced:
        cmd += ["--trace-file", os.path.join(OUT, f"spans-{stem}.jsonl")]
    code, out, peak_rss_mb = run_child(cmd, deadline)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark printed no result (exit code {code})")
        return 1
    for line in lines[:-1]:
        print(line)
    measured = result["metrics"]
    measured["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    print(f"  {'peak_rss_mb':<40} {peak_rss_mb:>16.4f} MiB")
    if "setup_s" in measured:
        setups.append(measured["setup_s"]["value"])
        measured["setup_s"]["value"] = statistics.median(setups)
        print(f"  {'setup_s (median of ' + str(len(setups)) + ')':<40} {measured['setup_s']['value']:>16.4f} s")

    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            log(f"metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": traced,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": source_digest(),
        "setups_s": setups,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": measured,
    }
    record_path = os.path.join(OUT, f"{stem}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(f"nproc {record['nproc']}  commit {record['commit']}  record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
