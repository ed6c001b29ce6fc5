#!/usr/bin/env bash
# Runs the hot-path microbenchmarks and writes a machine-readable
# snapshot to results/bench.json: ns/op, B/op and allocs/op for every
# benchmark in the measured packages, stamped with the git state so two
# snapshots are only ever compared like-for-like.
#
# Per-experiment wall-clock timings are embedded from
# results/timing.json when that file exists (regenerate it with
# `go run ./cmd/snapbpf-bench -timing results/timing.json ...`); the
# timing file carries its own git_state/workers stamp.
#
# Usage: scripts/bench_json.sh [out.json]
#   SNAPBPF_BENCHTIME=50000x  iterations per benchmark (default 20000x)
set -euo pipefail

out="${1:-results/bench.json}"
benchtime="${SNAPBPF_BENCHTIME:-20000x}"
pkgs=(./internal/ebpf ./internal/obs ./internal/pagecache ./internal/guest ./internal/vmm ./internal/sim)

git_state="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$git_state" != unknown ] && ! git diff --quiet 2>/dev/null; then
  git_state="${git_state}-dirty"
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
for pkg in "${pkgs[@]}"; do
  go test -run '^$' -bench . -benchmem -benchtime "$benchtime" -count=1 "$pkg" |
  tee -a "$tmp" >&2
done

mkdir -p "$(dirname "$out")"
{
  printf '{\n'
  printf '  "git_state": "%s",\n' "$git_state"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "benchmarks": [\n'
  # go test -bench lines: Name-P  iters  <value unit>... where the
  # unit set varies (MB/s only with SetBytes), so match on units.
  awk '
    /^pkg: / { pkg = $2 }
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      ns = "null"; b = "null"; allocs = "null"
      for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        else if ($(i + 1) == "B/op") b = $i
        else if ($(i + 1) == "allocs/op") allocs = $i
      }
      if (n++) printf ",\n"
      printf "    {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        pkg, name, $2, ns, b, allocs
    }
    END { if (n) printf "\n" }
  ' "$tmp"
  printf '  ],\n'
  printf '  "experiments": '
  if [ -f results/timing.json ]; then
    sed 's/^/  /' results/timing.json | sed '1s/^  //'
  else
    printf 'null\n'
  fi
  printf '}\n'
} >"$out"
echo "wrote $out" >&2
