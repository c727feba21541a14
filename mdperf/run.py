#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 mdperf/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the mdperf runner from the repository sources
(CMake, into $CARGO_TARGET_DIR/mdperf, default .bench_build/mdperf), runs
the workload in its own process and prints the runner's output. The last
line of standard output is the JSON result; the line before it is the
run's provenance, which also names the git commit when there is one. Each
run's provenance and result are kept under <build dir>/results/ and, for
traced runs, a chrome://tracing file under <build dir>/traces/.

The exit code is the runner's: nonzero when the run failed its state-hash
or span-coverage check, or when the sources or the build are missing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "mdperf")


def build(bdir):
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src" % ROOT)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "mdperf",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd))
    return os.path.join(bdir, "mdperf")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test hooks (selftest.py): fewer cycles, a corrupted reference.
    ap.add_argument("--min-cycles", type=int)
    ap.add_argument("--reference-xor", type=int)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(bdir, "traces", tag + ".json")]
    if args.min_cycles is not None:
        cmd += ["--min-cycles", str(args.min_cycles)]
    if args.reference_xor is not None:
        cmd += ["--reference-xor", str(args.reference_xor)]

    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s"
             % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("provenance: "):
        sys.stdout.write(proc.stdout)
        fail("runner exited %d without a result" % proc.returncode)
    prov = json.loads(lines[-2][len("provenance: "):])
    prov["git_commit"] = git_commit()
    result = json.loads(lines[-1])

    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    with open(os.path.join(bdir, "results", tag + ".json"), "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1)
    for line in lines[:-2]:
        print(line)
    print("provenance: " + json.dumps(prov))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
