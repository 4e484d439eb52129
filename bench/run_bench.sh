#!/usr/bin/env bash
# Run the microbenchmark suite and emit machine-readable results.
#
#   bench/run_bench.sh [build-dir] [output.json] [extra benchmark args...]
#
# Defaults: build-dir = build, output = BENCH_micro.json (repo root).
# Extra args are passed through to google-benchmark, e.g.
#   bench/run_bench.sh build out.json --benchmark_filter=CEV
#
# After the micro suite, the script times the figure harnesses
# (fig5/fig6/fig8) end-to-end and merges a "scenario_wall_s" section into
# the JSON. The harness runs happen in a scratch directory so their CSV
# output never lands on (or overwrites) the committed goldens.
# TRIBVOTE_WALL_REPLICAS (default 1) sets the replica count for the timed
# runs; set TRIBVOTE_WALL_SKIP=1 to skip the wall-clock section entirely.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$(cd "${1:-$repo_root/build}" && pwd)"
out="${2:-$repo_root/BENCH_micro.json}"
shift $(( $# > 2 ? 2 : $# ))

bin="$build_dir/bench/micro_kernels"
if [[ ! -x "$bin" ]]; then
  echo "error: $bin not built (cmake --build $build_dir --target micro_kernels)" >&2
  exit 1
fi

"$bin" \
  --benchmark_format=json \
  --benchmark_out="$out" \
  --benchmark_out_format=json \
  "$@" > /dev/null

echo "wrote $out"

# -- host --------------------------------------------------------------------
# google-benchmark's own context reports the *library's* build type, not
# this tree's. Record the host core count and the tree's CMake build type so
# a recording can be judged (and compared) on what actually ran.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build_dir/CMakeCache.txt")"
python3 - "$out" "$(nproc)" "${build_type:-unknown}" <<'PYEOF'
import json
import sys

path, nproc, build_type = sys.argv[1:4]
with open(path) as f:
    doc = json.load(f)
doc["host"] = {"nproc": int(nproc), "build_type": build_type}
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PYEOF

if [[ "${TRIBVOTE_WALL_SKIP:-0}" == "1" ]]; then
  echo "TRIBVOTE_WALL_SKIP=1: skipping scenario wall-clock section"
  exit 0
fi

# -- scenario wall-clock -----------------------------------------------------
# End-to-end time of each figure harness at TRIBVOTE_WALL_REPLICAS replicas.
# This is the number the DESIGN-doc perf discussion quotes ("a full fig6 run
# takes N s on one core") and the one the telemetry overhead gate compares
# against; the micro suite alone can't see whole-run regressions (pairing,
# event queue, CSV writing, ...).
wall_replicas="${TRIBVOTE_WALL_REPLICAS:-1}"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

declare -a wall_names=() wall_secs=()
for fig in fig5_experience_formation fig6_vote_sampling fig8_spam_attack; do
  fig_bin="$build_dir/bench/$fig"
  if [[ ! -x "$fig_bin" ]]; then
    echo "note: $fig_bin not built, skipping its wall-clock entry" >&2
    continue
  fi
  start_ns="$(date +%s%N)"
  ( cd "$scratch" && TRIBVOTE_REPLICAS="$wall_replicas" "$fig_bin" > /dev/null )
  end_ns="$(date +%s%N)"
  secs="$(awk "BEGIN{printf \"%.3f\", ($end_ns - $start_ns) / 1e9}")"
  wall_names+=("$fig")
  wall_secs+=("$secs")
  echo "wall-clock $fig: ${secs}s (replicas=$wall_replicas)"
done

if [[ "${#wall_names[@]}" -gt 0 ]]; then
  names_csv="$(IFS=,; echo "${wall_names[*]}")"
  secs_csv="$(IFS=,; echo "${wall_secs[*]}")"
  python3 - "$out" "$wall_replicas" "$names_csv" "$secs_csv" <<'PYEOF'
import json
import sys

path, replicas, names_csv, secs_csv = sys.argv[1:5]
with open(path) as f:
    doc = json.load(f)
doc["scenario_wall_s"] = {
    "replicas": int(replicas),
    **{n: float(s) for n, s in zip(names_csv.split(","), secs_csv.split(","))},
}
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PYEOF
  echo "merged scenario_wall_s into $out"
fi
