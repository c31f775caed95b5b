#!/usr/bin/env python3
"""Host-cost benchmark of the PANDAS simulator.

Builds perfbench/pandas_perf against the repository's src/ (Release, in
.bench_build/perfbench), runs one workload as a closed loop of simulated 12 s
slots, checks the simulated outputs, and prints the metrics named in
BENCHMARK.json as the last line of stdout:

    python3 perfbench/run.py --workload redundant-n300 --seed 42 \\
        --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 the per-layer
ones, from runs whose node handlers are timed from outside. The line before
the result holds the provenance (commit, host, compiler, build type) and the
details behind the numbers (deadline misses, layer shares).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PANDAS_PERF = BUILD_DIR / "pandas_perf"
EXPECTED_FILE = HERE / "expected_digests.json"

# Each workload is a fixed fixture; the seed only changes which networks are
# drawn. "networks" independent networks of "slots" slots each make one pass.
WORKLOADS = {
    "redundant-n300": dict(policy="redundant", nodes=300, sim_threads=1,
                           networks=6, slots=2),
    "single-n300": dict(policy="single", nodes=300, sim_threads=1,
                        networks=2, slots=1),
    "redundant-n400-t2": dict(policy="redundant", nodes=400, sim_threads=2,
                              networks=4, slots=2),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "slot_wall_s": "s",
    "slot_cpu_s": "s",
    "peak_rss_mb": "MB",
    "sampling_p50_ms": "ms",
    "sampling_p98_ms": "ms",
    "fetch_mb_per_node": "MB",
}

# Per-layer metric -> unit. Rates are per simulated slot, summed over nodes.
PER_LAYER_UNITS = {
    "core.on_seed_s": "s/slot",
    "core.on_seed_calls": "calls/slot",
    "core.on_query_s": "s/slot",
    "core.on_query_calls": "calls/slot",
    "core.on_reply_s": "s/slot",
    "core.on_reply_calls": "calls/slot",
    "core.outside_handlers_s": "s/slot",
    "core.fetch_rounds": "rounds/slot",
    "core.fetch_queries": "msgs/slot",
    "core.fetch_cells_requested": "cells/slot",
    "core.fetch_duplicates": "cells/slot",
    "core.fetch_useful_ratio": "ratio",
    "core.fetch_peer_timeouts": "count/slot",
    "sim.events": "events/slot",
    "sim.events_per_s": "1/s",
    "sim.peak_queue_depth": "events",
    "sim.scheduler_allocs": "count/slot",
    "sim.windows": "count/slot",
    "sim.lane_events": "events/slot",
    "net.seed.bytes_sent": "B/slot",
    "net.query.msgs_sent": "msgs/slot",
    "net.response.msgs_sent": "msgs/slot",
    "net.response.bytes_sent": "B/slot",
    "net.response.cells_received": "cells/slot",
    "net.msgs_lost": "msgs/slot",
    "harness.rss_after_setup_mb": "MB",
    "harness.peak_rss_per_node_kb": "KB",
    "obs.trace_overhead_frac": "frac",
}

MIN_BEYOND_P98 = 12


class BenchError(Exception):
    """Set-up failure: the benchmark prints no result and exits non-zero."""


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="PANDAS simulator host-cost benchmark.",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def build():
    """Configures and builds pandas_perf; a no-op when it is up to date."""
    if not (ROOT / "src" / "harness" / "experiment.h").is_file():
        raise BenchError(f"no PANDAS sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
           "--target", "pandas_perf"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_pandas_perf(spec, seed, seconds, trace):
    """Runs pandas_perf once and returns its parsed JSON output."""
    cmd = [str(PANDAS_PERF), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    for key, value in spec.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"pandas_perf exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def network_digests(raw):
    """Per-network digest, or None for a network whose repeats disagree."""
    seen = {}
    for ep in raw["episodes"]:
        seen.setdefault(ep["network"], set()).add(ep["digest"])
    return [next(iter(d)) if len(d) == 1 else None
            for _, d in sorted(seen.items())]


def run_digest(raw):
    """One digest over every network of the pass, in network order."""
    digests = network_digests(raw)
    if None in digests:
        return None
    return hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]


def check(raw, expected_digest):
    """Returns (failed operations, list of errors) for one pandas_perf run.

    An operation is one correct node-slot. It fails when the simulated
    outputs of its episode are wrong: a digest that differs from another
    repeat of the same network (which includes the traced repeat), a corrupt
    cell accepted, or a node count that does not match.
    """
    errors = []
    digests = network_digests(raw)
    failed = 0
    for ep in raw["episodes"]:
        bad = (digests[ep["network"]] is None
               or ep["corrupt_accepted"] != 0
               or ep["ops"] != ep["correct_nodes"] * raw["slots_per_episode"])
        if bad:
            failed += ep["ops"]
    if failed:
        errors.append(f"{failed} operations in episodes with wrong outputs")
    if None in digests:
        errors.append("repeats of one network disagree (traced or not)")
    if expected_digest is not None and run_digest(raw) != expected_digest:
        errors.append(f"digest {run_digest(raw)} != expected {expected_digest}")
    if raw["beyond_p98"] < MIN_BEYOND_P98:
        errors.append(f"only {raw['beyond_p98']} samples beyond p98")
    return failed, errors


def slot_samples(raw, traced, key="slot_wall_s"):
    return [v for ep in raw["episodes"] if ep["traced"] == traced
            for v in ep[key]]


def end_to_end(raw):
    setups = raw["setup_s"] + [ep["setup_s"] for ep in raw["episodes"]]
    return {
        "setup_s": statistics.median(setups),
        "slot_wall_s": statistics.median(slot_samples(raw, False)),
        "slot_cpu_s": statistics.median(slot_samples(raw, False, "slot_cpu_s")),
        "peak_rss_mb": raw["peak_rss_mb"],
        "sampling_p50_ms": raw["sampling_p50_ms"],
        "sampling_p98_ms": raw["sampling_p98_ms"],
        "fetch_mb_per_node": raw["fetch_mb_per_node"],
    }


def per_layer(raw):
    values = dict(raw["layers"])
    first = raw["episodes"][0]
    values["harness.rss_after_setup_mb"] = first["rss_after_setup_mb"]
    values["harness.peak_rss_per_node_kb"] = (
        raw["peak_rss_mb"] * 1024.0 / raw["nodes"])
    traced = statistics.median(slot_samples(raw, True))
    untraced = statistics.median(slot_samples(raw, False))
    values["obs.trace_overhead_frac"] = traced / untraced - 1.0
    return values


def layer_shares(raw):
    """Shares of traced slot wall time: handlers and everything outside."""
    layers = raw["layers"]
    spans = ("core.on_seed_s", "core.on_query_s", "core.on_reply_s",
             "core.outside_handlers_s")
    total = sum(layers[name] for name in spans)
    return {name: layers[name] / total for name in spans}


def provenance(workload, spec, seed):
    def first_line(cmd):
        try:
            # The ceiling keeps git from reading a repository above ROOT.
            env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True,
                                 cwd=ROOT, env=env, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        lines = out.stdout.strip().splitlines()
        return lines[0] if out.returncode == 0 and lines else None

    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            cache[key.split(":")[0]] = value
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER")
    return {
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "workload": workload,
        "seed": seed,
        "sim_threads": spec["sim_threads"],
    }


def load_expected(workload, seed):
    """The recorded digest for (workload, seed), or None if none is kept."""
    entry = json.loads(EXPECTED_FILE.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["digest"]


def summarize(raw, trace, expected_digest):
    """Builds the result line (and the details) from one pandas_perf run."""
    failed, errors = check(raw, expected_digest)
    if trace:
        values, units = per_layer(raw), PER_LAYER_UNITS
    else:
        values, units = end_to_end(raw), END_TO_END_UNITS
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {name} is not a finite number")
    untraced = [ep for ep in raw["episodes"] if not ep["traced"]]
    ops = sum(ep["ops"] for ep in raw["episodes"])
    late = sum(ep["late"] for ep in untraced)
    details = {
        "errors": errors,
        "digest": run_digest(raw),
        "episodes": len(raw["episodes"]),
        "slots_timed": len(slot_samples(raw, False)),
        "deadline_misses": late,
        "met_4s_fraction": 1.0 - late / sum(ep["ops"] for ep in untraced),
        "samples_beyond_p98": raw["beyond_p98"],
    }
    if trace:
        details["layer_shares"] = layer_shares(raw)
    result = {
        "correct": not errors,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, details


def main(argv):
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    try:
        build()
        raw = run_pandas_perf(spec, args.seed, args.seconds, args.trace)
        expected = load_expected(args.workload, args.seed)
        result, details = summarize(raw, args.trace, expected)
        prov = provenance(args.workload, spec, args.seed)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for err in details["errors"]:
        print(f"perfbench: FAIL: {err}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
