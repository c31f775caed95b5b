#!/usr/bin/env python3
"""Smoke test of the benchmark on a tiny network (100 nodes).

    python3 perfbench/smoke_test.py

Builds pandas_perf like run.py does, then checks that:
- every metric named in BENCHMARK.json is printed, with its unit, in both
  trace modes;
- a traced episode reproduces the untraced digest;
- the digest gate accepts a run of the recorded seed and rejects outputs of
  another seed;
- bad flags and --help never start a run.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

SPEC = dict(policy="redundant", nodes=100, sim_threads=1, networks=1, slots=1)


def expect(cond, what):
    if not cond:
        print(f"smoke_test: FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def metric_units(bench, key):
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.build()

    raw = run.run_pandas_perf(SPEC, 42, 0, 1)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = run.summarize(raw, trace, None)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(printed == metric_units(bench, key),
               f"--trace {trace} prints every {key} metric with its unit")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"--trace {trace} result has exactly correct, attempted, failed, metrics")
    expect(None not in run.network_digests(raw),
           "traced episode reproduces the untraced digest")

    recorded = run.run_digest(raw)
    again = run.run_pandas_perf(SPEC, 42, 0, 0)
    _, errors = run.check(again, recorded)
    expect(not any("digest" in e for e in errors),
           "digest gate accepts a rerun of the recorded seed")
    other = run.run_pandas_perf(SPEC, 43, 0, 0)
    _, errors = run.check(other, recorded)
    expect(any("digest" in e for e in errors),
           "digest gate rejects outputs of another seed")

    binary = str(run.PANDAS_PERF)
    for bad in (["--nodes", "abc"], ["--nodes", "100", "--bogus", "1"],
                ["--nodes", "100", "--seed"], ["--nodes", "1e2"]):
        proc = subprocess.run([binary] + bad, capture_output=True, text=True)
        expect(proc.returncode == 2 and not proc.stdout,
               f"pandas_perf rejects {' '.join(bad)}")
    script = str(Path(run.__file__))
    for bad in (["--workload", "single-n300", "--seconds", "abc",
                 "--trace", "0"],
                ["--workload", "nope", "--seconds", "1", "--trace", "0"],
                ["--workload", "single-n300", "--seconds", "1", "--trace",
                 "0", "--sed", "1"]):
        proc = subprocess.run([sys.executable, script] + bad,
                              capture_output=True, text=True)
        expect(proc.returncode == 2 and not proc.stdout,
               f"run.py rejects {' '.join(bad)}")
    for cmd in ([binary, "--help"], [sys.executable, script, "--help"]):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        expect(proc.returncode == 0 and "usage" in proc.stdout
               and '"metrics"' not in proc.stdout,
               f"{Path(cmd[-2]).name} --help prints usage without a run")
    print("smoke_test: all checks passed")


if __name__ == "__main__":
    main()
