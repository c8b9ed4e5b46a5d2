#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The benchmark is built from the checkout's sources (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Build output goes
to standard error, so the last line of standard output is the benchmark's JSON
result. The traced run (--trace 1) also writes its spans to
<build>/spans/<workload>-spans.tsv.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "desis_perfbench"
# A run must end within 180 s; the build before it is not counted here.
RUN_TIMEOUT_S = 170
SELF_TEST_TIMEOUT_S = 900


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def git_sha():
    """The checkout's commit, or "unknown" when it is not a git work tree of
    its own (the benchmark may run from an exported copy)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_hash():
    """Content hash of everything the benchmark builds, for provenance in
    checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if not os.path.isfile(path) or os.path.islink(path):
                    continue
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Desis sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "--target", BINARY, "-j", jobs]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        # Later builds re-run the configure step themselves when a
        # CMakeLists.txt changes.
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, BINARY)


def run(cmd, timeout_s):
    try:
        return subprocess.run(cmd, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout_s} s")


def check_benchmark_json(binary):
    """BENCHMARK.json must list exactly the binary's metrics and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = subprocess.run([binary, "--list-metrics"], capture_output=True,
                         text=True, check=True)
    defs = json.loads(out.stdout)
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        want = {(d["name"], d["unit"]) for d in defs if d["trace"] == trace}
        have = {(m["name"], m["unit"]) for m in spec[key]}
        if want != have:
            fail(f"BENCHMARK.json {key} differs from the benchmark: "
                 f"missing {sorted(want - have)}, extra {sorted(have - want)}")
    # The benchmark may run workloads BENCHMARK.json does not list
    # (fine_slices, see README.md), never the other way round.
    names = {w["name"] for w in spec["workloads"]}
    out = subprocess.run([binary, "--list-workloads"], capture_output=True,
                         text=True, check=True)
    if not names <= set(out.stdout.split()):
        fail(f"BENCHMARK.json workloads {sorted(names)} are not all among "
             f"the benchmark's {out.stdout.split()}")
    print("BENCHMARK.json matches the benchmark's metrics and workloads")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests at a tiny size")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        check_benchmark_json(binary)
        sys.exit(run([binary, "--self-test"], SELF_TEST_TIMEOUT_S))
    span_dir = os.path.join(build_dir(), "spans")
    os.makedirs(span_dir, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run([binary, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--span-dir", span_dir,
                  "--git-sha", git_sha(), "--src-hash", source_hash()],
                 RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
