#!/bin/sh
# bench.sh runs the root benchmark suite and records a BENCH_<date>.json
# snapshot, the repository's performance trajectory. Knobs:
#
#   BENCH=RSEncode  restrict the benchmark regexp (default: .)
#   BENCHTIME=2s    per-benchmark time or iteration budget (default: 1s)
#   NOTE="..."      free-form note recorded in the snapshot
set -eu
cd "$(dirname "$0")/.."

stamp=$(date -u +%Y-%m-%d)
out="BENCH_${stamp}.json"
# Never clobber an earlier same-day snapshot: suffix with b, c, ... so the
# performance trajectory keeps every point and `ls | sort | tail -1` still
# finds the newest.
for suffix in b c d e f g; do
  [ -e "$out" ] || break
  out="BENCH_${stamp}${suffix}.json"
done
if [ -e "$out" ]; then
  echo "bench.sh: all snapshot names for ${stamp} are taken (through ${out}); refusing to overwrite" >&2
  exit 1
fi
raw=$(mktemp)
json=$(mktemp)
trap 'rm -f "$raw" "$json"' EXIT

# No pipeline: a failing benchmark run must abort the snapshot, and the
# snapshot file is only replaced once benchjson has fully succeeded.
# -cpu 1: one P on every host, like the earlier snapshots (recorded on one
# core) and like hcbench. allocs/op is gated (benchjson -compare), and the
# partitioner's worker pools allocate per P: 27 allocs/op at one P, ~420 at
# two.
go test -run '^$' -cpu 1 -bench "${BENCH:-.}" -benchmem -benchtime "${BENCHTIME:-1s}" . > "$raw"
cat "$raw"
go run ./cmd/benchjson -date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" -note "${NOTE:-}" < "$raw" > "$json"
chmod 644 "$json" # mktemp creates 0600; the snapshot is a shared artifact
mv "$json" "$out"
echo "wrote $out" >&2
