#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 ibbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--out results.jsonl]

Run from the root of a checkout. The first call configures and builds the
library sources under src/ plus the ibbench program into .bench_build/ (CMake,
Release, -march=native); later calls only re-check the build. The program's
output is passed through unchanged, so the last stdout line is the result
JSON {correct, attempted, failed, metrics}. Exits nonzero on a failed build,
a failed output check, or a missing/malformed result line.

IBRAR_* variables are removed from the program's environment so serving runs
at ServeConfig::from_env() defaults with one pool lane per core.

--out appends one JSON line {"header", "digest", "result"} per run (digest:
the training result digest), the input format of compare.py.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                log("ibbench: build failed; see " + build_log)
                return None
    return os.path.join(BUILD, "ibbench")


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "ibbench"):
        base = os.path.join(ROOT, top)
        for d, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a {header, result} JSON line here")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("IBRAR_")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        log("ibbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("ibbench: program exited with code %d" % proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"} or
            result["correct"] is not True):
        log("ibbench: no valid result line")
        return 1
    if args.out:
        header, digest = {}, None
        for line in lines:
            if line.startswith("ibbench-header "):
                header = json.loads(line[len("ibbench-header "):])
            m = re.match(r"training: .* digest ([0-9a-f]{16})$", line)
            if m and digest is None:
                digest = m.group(1)
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"header": header, "digest": digest,
                                 "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
