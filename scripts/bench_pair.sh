#!/bin/sh
# bench_pair.sh BASE BENCH [N]
#
# Paired runs of the root benchmarks matching BENCH (a go test -bench
# regexp): BASE (any git revision) against the working tree, N times each
# (default 10), alternating which side goes first, each side as
# `go test -run '^$' -cpu 1 -benchmem -bench BENCH .` in its own checkout.
# The base checkout is a `git archive` under .bench_build/benchpair/,
# removed at the end; every run's output stays there.
#
# Prints, per benchmark and per figure (ns/op, B/op, allocs/op), both
# medians, both ranges and in how many pairs the working tree read lower /
# higher. It gates nothing: it is the evidence a per-layer claim cites.
set -eu

if [ $# -lt 2 ]; then
	echo "usage: $0 BASE BENCH [N]" >&2
	exit 2
fi
base=$1 bench=$2 n=${3:-10}

root=$(cd "$(dirname "$0")/.." && pwd)
work="$root/.bench_build/benchpair"
rm -rf "$work"
mkdir -p "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"

# run SIDE I: one benchmark run of a side, its output kept.
run() {
	dir=$root
	[ "$1" = base ] && dir="$work/base"
	(cd "$dir" && go test -run '^$' -cpu 1 -benchmem -bench "$bench" .) >"$work/$1.$2.txt"
}

i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i"
		run head "$i"
	else
		run head "$i"
		run base "$i"
	fi
	echo "pair $i/$n done" >&2
	i=$((i + 1))
done
rm -rf "$work/base"

printf '%-38s %-10s %12s %25s %12s %25s %s\n' benchmark figure 'base median' 'base range' 'head median' 'head range' "head lower/higher of $n"
awk -v n="$n" '
# stats sorts side/key into s and sets med, lo and hi.
function stats(side, key,    i, j, t, s) {
	for (i = 1; i <= n; i++) s[i] = v[side, key, i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
	med = (n % 2) ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
	lo = s[1]; hi = s[n]
}
FNR == 1 {
	k = split(FILENAME, part, "[/.]")
	side = part[k - 2]; run = part[k - 1]
}
/^Benchmark/ {
	for (f = 3; f < NF; f += 2) {
		if ($(f + 1) != "ns/op" && $(f + 1) != "B/op" && $(f + 1) != "allocs/op") continue
		key = $1 SUBSEP $(f + 1)
		v[side, key, run] = $f + 0
		keys[key] = 1
	}
}
END {
	for (key in keys) {
		split(key, kp, SUBSEP)
		lower = higher = 0
		for (i = 1; i <= n; i++) {
			if (v["head", key, i] < v["base", key, i]) lower++
			if (v["head", key, i] > v["base", key, i]) higher++
		}
		stats("base", key); bm = med; br = sprintf("%.6g-%.6g", lo, hi)
		stats("head", key)
		printf "%-38s %-10s %12.6g %25s %12.6g %25s %d/%d\n", kp[1], kp[2], bm, br, med, sprintf("%.6g-%.6g", lo, hi), lower, higher
	}
}' "$work"/base.*.txt "$work"/head.*.txt | sort
