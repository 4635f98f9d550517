#!/usr/bin/env python3
"""Build and run the apex suite-pipeline benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload engine-bc --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in turn. The benchmark package is
built with cargo (offline) into $CARGO_TARGET_DIR, `.bench_build` by
default; the last line of standard output is the JSON result.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["engine-bc", "campaign", "campaign-cached"]
# One run measures for --seconds; set-up, warm-up and checks come on top.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    if not binary.is_file():
        fail(f"{binary} was not built")
    return binary


def provenance():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file())
    files += sorted(p for p in HERE.rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_one(binary, workload, args, commit):
    cmd = [str(binary), "--workload", workload, "--commit", commit] + args
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    if out.returncode != 0:
        fail(f"{workload} exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv):
    if "--workload" not in argv[:-1]:
        fail("usage: run.py --workload NAME|all --seed N --seconds S --trace 0|1")
    i = argv.index("--workload")
    workload, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    if workload != "all" and workload not in WORKLOADS:
        fail(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)}, all)")
    binary = build()
    commit = provenance()
    if workload != "all":
        run_one(binary, workload, rest, commit)
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        r = run_one(binary, w, rest, commit)
        combined["correct"] &= r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main(sys.argv[1:])
