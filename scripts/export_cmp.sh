#!/usr/bin/env bash
# Byte-identity check between two builds: runs a fixed list of benches and
# examples from each build tree with the same flags and `cmp`s every file
# they write (exports and stdout). A change that claims to keep behaviour
# (a refactor, a deleted mode, a knob folded into a constant) must report
# every file identical.
#
#   scripts/export_cmp.sh PARENT_BUILD CHANGE_BUILD
#
# Each argument is a configured and built tree (e.g. `build/` of a checkout
# of the parent commit, and `build/` of the change). Exits 0 when every file
# matches, 1 at the first difference, 2 on bad usage. Takes a few minutes:
# `bench_fig12_baselines --quick --json` alone runs about one minute.
set -euo pipefail

if [[ $# -ne 2 || ! -d "$1" || ! -d "$2" ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi

OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT

# name|binary (relative to the build tree)|flags. Export paths are written
# as @/file and resolve to the run's own output directory.
RUNS=(
  "fig09|bench/bench_fig09_phases|--quick --trace-out @/t.json --metrics-out @/m.json --records-out @/r.jsonl --attribution-out @/a.jsonl"
  "table1|bench/bench_table1_rounds|--quick"
  "fig11|bench/bench_fig11_adaptive|--quick"
  "fig12|bench/bench_fig12_baselines|--quick --json"
  "fig13|bench/bench_fig13_scaling|--quick"
  "fig15|bench/bench_fig15_faults|--quick --nodes 80 --byzantine 0.1"
  "quickstart|examples/quickstart|"
  "fault_injection|examples/fault_injection|--nodes 200 --slots 1"
)

run_one() {  # build side name binary flags
  local dir="${OUT}/$2/$3"
  mkdir -p "${dir}"
  local args=()
  local a
  for a in $5; do args+=("${a/#@/${dir}}"); done
  "$1/$4" "${args[@]}" > "${dir}/stdout.txt"
}

for entry in "${RUNS[@]}"; do
  IFS='|' read -r name binary flags <<< "${entry}"
  run_one "$1" parent "${name}" "${binary}" "${flags}"
  run_one "$2" change "${name}" "${binary}" "${flags}"
  files=0
  for f in "${OUT}/parent/${name}"/* "${OUT}/change/${name}"/*; do
    rel="${f#"${OUT}"/*/}"
    cmp "${OUT}/parent/${rel}" "${OUT}/change/${rel}" \
        || { echo "export_cmp: ${rel} differs"; exit 1; }
    files=$((files + 1))
  done
  echo "export_cmp: ${name}: $((files / 2)) files identical"
done
echo "export_cmp OK"
