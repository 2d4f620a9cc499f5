#!/bin/sh
# hcbench_pair.sh BASE [N] [hcbench flags...]
#
# Paired runs of the gate benchmark: BASE (any git revision) against the
# working tree, N times each (default 10), alternating which side goes first,
# both through benchmarks/run.sh of their own checkout — so each side is
# built by the recipe the gate uses and runs from its own .bench_build. The
# base checkout is a `git archive` under .bench_build/pair/, removed at the
# end; the last-line JSON of every run stays there.
#
# Prints, per metric in that JSON: both medians, both inter-quartile
# distances (the quartiles hcbench -aa uses), the ratio of the medians and
# in how many pairs the working tree read lower / higher. It gates nothing:
# this host's timings spread 7-23 %, and this is the evidence a timing claim
# has to cite instead. Useful flags: -workload NAME, -seconds S, -timings
# (adds op_p50_ms and friends to the JSON), -trace 1 (per-layer metrics).
set -eu

if [ $# -lt 1 ]; then
	echo "usage: $0 BASE [N] [hcbench flags...]" >&2
	exit 2
fi
base=$1
shift
n=10
case "${1:-}" in
'' | -*) ;;
*)
	n=$1
	shift
	;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
work="$root/.bench_build/pair"
rm -rf "$work"
mkdir -p "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"

# run SIDE I [flags...]: one run of a side, its report line kept.
run() {
	side=$1 k=$2
	shift 2
	dir=$root
	[ "$side" = base ] && dir="$work/base"
	(cd "$dir" && sh benchmarks/run.sh "$@") | tail -n 1 >"$work/$side.$k.json"
	grep -q '"correct":true' "$work/$side.$k.json" || {
		echo "$side run $k failed or reported failed ops: $work/$side.$k.json" >&2
		exit 1
	}
}

i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i" "$@"
		run head "$i" "$@"
	else
		run head "$i" "$@"
		run base "$i" "$@"
	fi
	echo "pair $i/$n done" >&2
	i=$((i + 1))
done
rm -rf "$work/base"

printf '%-34s %12s %11s %12s %11s %9s %s\n' metric 'base median' 'base iqr' 'head median' 'head iqr' head/base "head lower/higher of $n"
awk -v n="$n" '
# quartile i of the sorted s[1..n], as statistics.quantiles(n=4) gives it.
function quartile(s, n, i,    j, delta) {
	j = int(i * (n + 1) / 4)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	delta = i * (n + 1) - j * 4
	return (s[j] * (4 - delta) + s[j + 1] * delta) / 4
}
# stats sorts side/name into s and sets med and iqr.
function stats(side, name,    i, j, t, s) {
	for (i = 1; i <= n; i++) s[i] = v[side, name, i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
	med = (n % 2) ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
	iqr = (n < 2) ? 0 : quartile(s, n, 3) - quartile(s, n, 1)
}
{
	k = split(FILENAME, part, "[/.]")
	side = part[k - 2]; run = part[k - 1]
	line = $0
	while (match(line, /"[^"]+":[{]"value":[^,}]+/)) {
		m = substr(line, RSTART + 1, RLENGTH - 1)
		line = substr(line, RSTART + RLENGTH)
		name = m; sub(/".*/, "", name)
		sub(/.*"value":/, "", m)
		v[side, name, run] = m + 0
		names[name] = 1
	}
}
END {
	for (name in names) {
		lower = higher = 0
		for (i = 1; i <= n; i++) {
			if (v["head", name, i] < v["base", name, i]) lower++
			if (v["head", name, i] > v["base", name, i]) higher++
		}
		stats("base", name); bm = med; bi = iqr
		stats("head", name)
		printf "%-34s %12.6g %11.4g %12.6g %11.4g %9s %d/%d\n", name, bm, bi, med, iqr,
			(bm != 0) ? sprintf("%.3f", med / bm) : "-", lower, higher
	}
}' "$work"/base.*.json "$work"/head.*.json | sort
