#!/usr/bin/env python3
"""Builds and runs the qopt end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload point_lookup --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The engine library and the benchmark are built from source into
.bench_build/perfbench under the current directory. Everything the run
writes (build tree, spill files, span traces) stays under .bench_build.
The last line of standard output is the result JSON.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ENGINE_SRC = BENCH_DIR.parent / "src"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def source_id():
    """The git commit when there is one, else a digest of the engine source."""
    # The ceiling keeps git from looking above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(BENCH_DIR.parent.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR,
                             env=env, capture_output=True, text=True,
                             timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(ENGINE_SRC.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ENGINE_SRC)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not (ENGINE_SRC / "CMakeLists.txt").is_file():
        log(f"engine sources not found at {ENGINE_SRC}")
        return 2
    out_dir = Path.cwd() / ".bench_build"
    build_dir = out_dir / "perfbench"
    try:
        build(build_dir, "perfbench_test" if args.self_test else "perfbench")
    except (OSError, subprocess.SubprocessError) as err:
        log(f"build failed: {err}")
        return 2

    if args.self_test:
        return subprocess.run([str(build_dir / "perfbench_test")],
                              timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        parser.error("--workload is required")

    tmp_dir = build_dir / "tmp"
    trace_dir = build_dir / "traces"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--spill-dir", str(tmp_dir),
           "--git-sha", source_id()]
    if args.trace == "1":
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
