#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload design-study --seed 1 --seconds 30 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt: the wave library from src/
plus the perfbench binary) in $CARGO_TARGET_DIR, default .bench_build, runs the
self-test after each build, then runs the binary and prints its output.
The last line is the result JSON; --trace 0 gives the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer metrics and a Chrome trace in
the build directory. Exits non-zero, without a result, when it cannot
build or finds no wave sources next to this directory.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, **kwargs):
    """Runs a build step with its output on stderr (stdout is the result)."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs).returncode


def commit_id():
    """The git commit, or, outside a git checkout, a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "include", "machines", "perfbench"],
                                   capture_output=True, text=True, timeout=10)
            return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "include", "machines", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def declared(bench, section):
    return {m["name"]: m["unit"] for m in bench[section]}


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            die("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", build_dir, "-j", jobs]) != 0:
        die("build failed", 1)

    # Self-test once per build: the benchmark's own arithmetic and generator.
    selftest = os.path.join(build_dir, "perfbench_selftest")
    stamp = os.path.join(build_dir, "selftest.passed")
    if os.path.exists(stamp) and os.path.getmtime(stamp) >= os.path.getmtime(selftest):
        return
    if run_quiet([selftest]) != 0:
        die("self-test failed", 1)
    with open(stamp, "w") as f:
        f.write("ok\n")


def check_result(line, bench, trace):
    """The result line must carry exactly the declared metrics and units, so
    every workload reports one key set per mode."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys")
    want = declared(bench, "per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing} extra {extra} "
                         f"or units differ")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in ("src", os.path.join("include", "wave"), "machines"):
        if not os.path.isdir(os.path.join(ROOT, need)):
            die(f"no {need}/ beside perfbench/: run it from a full checkout of the repository")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--machines", os.path.join(ROOT, "machines"),
           "--expected", os.path.join(HERE, "expected_des.txt"),
           "--commit", commit_id(),
           "--trace-out", os.path.join(build_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=build_dir, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"the run exceeded {RUN_TIMEOUT_S} s and was stopped", 1)
    lines = proc.stdout.splitlines()
    if not lines:
        die("perfbench printed nothing", 1)
    try:
        check_result(lines[-1], bench, args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"malformed result: {e}", 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
