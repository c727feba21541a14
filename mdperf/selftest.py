#!/usr/bin/env python3
"""Self-tests of the repository benchmark (a few minutes on 4 cores).

    python3 mdperf/selftest.py

1. Every workload's generated System is bitwise identical for one seed
   and different for the next seed.
2. A run checked against a wrong reference hash is reported as failed
   (correct false, failed 1) and exits nonzero; the same run against the
   true reference passes.
3. Every metric a run emits has a name matching [A-Za-z0-9_.-]+, a unit,
   and is declared with that unit in BENCHMARK.json: exactly the
   end_to_end metrics with --trace 0, exactly the per_layer ones with
   --trace 1.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def bench(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--min-cycles", "5"] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = run.build(run.build_dir())

    # 1. Inputs are a pure function of the seed.
    proc = subprocess.run([exe, "--selftest-sysgen", "--seed", "11"],
                          capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    check(proc.returncode == 0, "same seed -> identical System; next seed "
          "-> different System")

    # 2. The correctness gate rejects a wrong reference.
    code, res = bench("engine_mesh_1t", 5, 0, "--reference-xor", "1")
    check(code != 0 and res is not None and res["correct"] is False
          and res["failed"] == 1 and res["attempted"] == 1,
          "wrong reference -> failed run, nonzero exit")
    code, res = bench("engine_mesh_1t", 5, 0)
    check(code == 0 and res is not None and res["correct"] is True
          and res["failed"] == 0, "true reference -> passing run")

    # 3. Emitted metric names and units match the declaration.
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for name in declared:
            check(NAME.match(name) is not None, "declared name %s" % name)
        for w in spec["workloads"]:
            code, res = bench(w["name"], 3, trace)
            ok = code == 0 and res is not None and res["correct"]
            check(ok, "%s --trace %d passes" % (w["name"], trace))
            if not ok:
                continue
            got = res["metrics"]
            bad = [n for n, v in got.items()
                   if not NAME.match(n) or not UNIT.match(v.get("unit", ""))
                   or declared.get(n) != v["unit"]
                   or not isinstance(v.get("value"), (int, float))]
            check(not bad, "%s --trace %d: names, units and values valid %s"
                  % (w["name"], trace, bad or ""))
            check(set(got) == set(declared),
                  "%s --trace %d emits exactly the %s metrics (missing %s, "
                  "extra %s)" % (w["name"], trace, section,
                                 sorted(set(declared) - set(got)),
                                 sorted(set(got) - set(declared))))

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
