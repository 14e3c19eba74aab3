#!/usr/bin/env python3
"""Build goalrec from source and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the release `goalrec-serve` binary and the benchmark package in
`perfbench/` (into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs
the benchmark binary, which prints the run's environment record and, as its
last stdout line, the result JSON. Exits non-zero, without a result, when
the build or the run fails. Every file the run writes stays under the
target directory.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The commit under test, or a digest of its sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "third_party"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def cargo_build(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr: stdout carries only the result.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("error: no goalrec workspace beside perfbench/", file=sys.stderr)
        return 1
    if not cargo_build(["-p", "goalrec-server", "--bin", "goalrec-serve"], target):
        print("error: building goalrec-serve failed", file=sys.stderr)
        return 1
    if not cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target):
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "goalrec-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--server", os.path.join(release, "goalrec-serve"),
        "--work", os.path.join(target, "perfbench-work"),
        "--source", source_id(),
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
