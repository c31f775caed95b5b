#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite, then smoke
# the observability exporters end-to-end.
#
#   scripts/tier1.sh          # standard Release config in build/
#   scripts/tier1.sh --asan   # ASan+UBSan config in build-asan/
#   scripts/tier1.sh --tsan   # TSan config in build-tsan/ (threaded tests only)
#
# The sanitizer configurations are separate build trees so they never perturb
# the default one; ASan runs the same ctest suite and smoke job as the
# default, TSan runs just the tests that exercise real threads (the discrete
# event engine is single-threaded by design — running the whole simulation
# suite under TSan would cost minutes to re-verify code with no concurrency).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release)
if [[ "${1:-}" == "--asan" ]]; then
  BUILD_DIR=build-asan
  SAN_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all"
  CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
              -DCMAKE_CXX_FLAGS="${SAN_FLAGS}"
              -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}")
elif [[ "${1:-}" == "--tsan" ]]; then
  SAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
      -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
  # The threaded surface: ThreadPool itself, the parallel erasure encode
  # paths that fan out over it, the engine/topology layer that owns the
  # deterministic seams the pool must not cross, the sharded parallel
  # engine + cross-shard transport lanes (tests/parallel_test.cpp), and the
  # fault/hedging and baseline suites whose runs shard over the pool too.
  cmake --build build-tsan -j "$(nproc)" \
      --target util_test erasure_test kernels_test sim_test parallel_test \
               fault_test fetcher_test rtt_test baseline_test
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
      -R "ThreadPool|ReedSolomon|ExtendedBlob|Kernels|Engine|Topology|Parallel|Fault|Fetcher|Rtt|PeerRtt|Baseline"
  echo "tier1 OK (build-tsan)"
  exit 0
fi

cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# Documentation drift check: dead intra-repo links, unbalanced code fences,
# binaries documented but gone from the sources, documented flags that no
# program declares (the built binaries' --help tables), and docs/ pages
# missing from the README index.
python3 scripts/check_docs.py --build "${BUILD_DIR}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# Observability smoke job: a quick fig09 run must produce a valid Chrome
# trace and a valid metrics dump with the per-round fetch families. Export
# files carry the per-configuration label suffix (here: the seeding policy).
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
"./${BUILD_DIR}/bench/bench_fig09_phases" --quick \
    --trace-out "${SMOKE_DIR}/t.json" --metrics-out "${SMOKE_DIR}/m.json" \
    > /dev/null
python3 - "${SMOKE_DIR}/t.redundant-r-8.json" \
    "${SMOKE_DIR}/m.redundant-r-8.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "trace has no events"
assert any(e.get("ph") == "X" for e in events), "no phase spans in trace"
assert any(e.get("ph") == "i" for e in events), "no instant events in trace"
metrics = json.load(open(sys.argv[2]))
counters = metrics["counters"]
assert "fetch_cells_received{round=1}" in counters, "missing round families"
assert "node_slots" in counters and counters["node_slots"] > 0
assert "engine_events_executed" in metrics["gauges"]
print(f"smoke OK: {len(events)} trace events, "
      f"{len(counters)} counter series")
EOF

# Attribution smoke job: causal tracing + deadline attribution end-to-end.
# A small fig09 run with flow arrows and the attribution export must (a)
# pass the offline analyzer's invariant checks (categories sum to elapsed,
# dominant is the argmax), (b) stitch balanced Perfetto flow arrows into the
# Chrome trace, and (c) be byte-identical across two same-seed runs.
ATTR_ARGS=(--quick --nodes 120 --slots 1 --trace-flows)
for run in run1 run2; do
  mkdir -p "${SMOKE_DIR}/${run}"
  "./${BUILD_DIR}/bench/bench_fig09_phases" "${ATTR_ARGS[@]}" \
      --attribution-out "${SMOKE_DIR}/${run}/attr.jsonl" \
      --trace-out "${SMOKE_DIR}/${run}/flow.json" > /dev/null
done
python3 scripts/attribution_report.py --check \
    "${SMOKE_DIR}"/run1/attr.*.jsonl
python3 - "${SMOKE_DIR}/run1/flow.redundant-r-8.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
starts = sum(1 for e in events if e.get("cat") == "flow" and e["ph"] == "s")
ends = sum(1 for e in events if e.get("cat") == "flow" and e["ph"] == "f")
assert starts > 0 and starts == ends, f"unbalanced flows: {starts} s, {ends} f"
print(f"flow smoke OK: {starts} arrows")
EOF
for f in "${SMOKE_DIR}"/run1/*.jsonl "${SMOKE_DIR}"/run1/*.json; do
  cmp "$f" "${SMOKE_DIR}/run2/$(basename "$f")" \
      || { echo "same-seed export differs: $(basename "$f")"; exit 1; }
done
echo "attribution smoke OK (same-seed exports byte-identical)"

# Parallel-equivalence job: the same run sharded over 8 engine threads must
# export byte-identical attribution, traces, metrics, and records — clause 5
# of the determinism contract (docs/SIMULATION.md "Parallel execution").
for mode in serial par8; do
  threads=1; [[ "${mode}" == "par8" ]] && threads=8
  mkdir -p "${SMOKE_DIR}/${mode}"
  "./${BUILD_DIR}/bench/bench_fig09_phases" "${ATTR_ARGS[@]}" \
      --sim-threads "${threads}" \
      --attribution-out "${SMOKE_DIR}/${mode}/attr.jsonl" \
      --trace-out "${SMOKE_DIR}/${mode}/flow.json" \
      --metrics-out "${SMOKE_DIR}/${mode}/m.json" \
      --records-out "${SMOKE_DIR}/${mode}/r.jsonl" \
      > "${SMOKE_DIR}/${mode}/stdout.txt"
done
for f in "${SMOKE_DIR}"/serial/*; do
  cmp "$f" "${SMOKE_DIR}/par8/$(basename "$f")" \
      || { echo "serial/parallel export differs: $(basename "$f")"; exit 1; }
done
echo "parallel equivalence OK (--sim-threads 1 vs 8 exports byte-identical)"

# Chaos-soak smoke job: one quick seed through the full chaos-mix battery
# (partitions, Gilbert–Elliott bursts, flapping, bandwidth collapse, storm),
# asserting the robustness invariants — zero corrupt cells accepted, exact
# attribution sums, serial-vs-sharded byte-identity, allocation steady
# state (docs/FAULTS.md "Network chaos").
python3 scripts/soak.py --quick --seeds 1 \
    --bench "./${BUILD_DIR}/bench/bench_soak"
echo "soak smoke OK"

# Live-backend parity smoke job: one PANDAS slot over real loopback UDP
# sockets must reach full sampling with zero silent drops (no send/EMSGSIZE/
# decode failures) and match the lossless SimTransport twin within the
# tolerances of docs/UDP.md "Sim-vs-live parity". Small n keeps it a few
# seconds; the binary exits non-zero on any parity or drop-accounting
# violation, and it runs for the ASan tree too.
"./${BUILD_DIR}/examples/live_loopback" --nodes 64 --run-ms 2000 --parity
echo "live-backend parity smoke OK"

# Portable-fallback job (default config only): build the erasure stack with
# SIMD tiers compiled out and no AVX in the baseline ISA, so the scalar
# kernel path stays tested even though CI hosts all have AVX2. A separate
# tree keeps the flags from leaking into the main build.
if [[ "${BUILD_DIR}" == "build" ]]; then
  cmake -B build-nosimd -S . -DCMAKE_BUILD_TYPE=Release \
      -DPANDAS_DISABLE_SIMD=ON -DCMAKE_CXX_FLAGS="-march=x86-64"
  cmake --build build-nosimd -j "$(nproc)" \
      --target kernels_test erasure_test util_test
  ctest --test-dir build-nosimd --output-on-failure -j "$(nproc)" \
      -R "Kernels|GF16|Matrix|ReedSolomon|ExtendedBlob|ThreadPool"
  echo "tier1 OK (build-nosimd fallback)"
fi

# Benchmark smoke job (default config only): perfbench builds its own
# Release tree (.bench_build/perfbench) and, on a 100-node network, checks
# that every BENCHMARK.json metric prints with its unit, that the digest gate
# accepts the recorded seed and rejects another, and that bad flags never
# start a run — so the benchmark's build and flag handling stay green.
if [[ "${BUILD_DIR}" == "build" ]]; then
  python3 perfbench/smoke_test.py
  echo "benchmark smoke OK"
fi

echo "tier1 OK (${BUILD_DIR})"
