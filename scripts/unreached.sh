#!/usr/bin/env bash
# Lists every function of module ebbrt that neither the experiments nor
# the examples run, and compares the list with docs/unreached.txt both
# ways: a function newly unreached fails, and so does a listed one that
# something now runs.
#
# It builds cmd/ebbrt and each examples/* with coverage over the whole
# module, then runs `ebbrt run -scale smoke all` and every example into
# one coverage directory, from a scratch directory, so the BENCH_*.json
# files the run writes land there. Only coverage is read. The exit status
# of the runs gates nothing: the experiments' own conditions are
# TestSpecs' to check, and under -cover table1's host-clock ratios fail,
# because the counters keep Ref.Get from inlining. A run that dies early
# still fails the check, because what it did not reach shows up as newly
# unreached.
#
# Run from anywhere in the repository: bash scripts/unreached.sh
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
list=docs/unreached.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/cov" "$work/run"

go build -cover -coverpkg=ebbrt/... -o "$work/bin/ebbrt" ./cmd/ebbrt
for ex in examples/*/; do
	go build -cover -coverpkg=ebbrt/... -o "$work/bin/example-$(basename "$ex")" "./$ex"
done
(
	cd "$work/run"
	export GOCOVERDIR="$work/cov"
	"$work/bin/ebbrt" run -scale smoke all >/dev/null 2>>"$work/log" || true
	for bin in "$work"/bin/example-*; do
		"$bin" >/dev/null 2>>"$work/log" || true
	done
)

# covdata prints "ebbrt/<file>:<line>:  <function>  <percent>".
go tool covdata func -i="$work/cov" |
	awk '$NF == "0.0%" { sub(/^ebbrt\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
	sort >"$work/unreached"
if awk '!/^#/ && NF > 0 && NF < 3 { print; bad = 1 } END { exit !bad }' "$list" >&2; then
	echo "$list: the entries above give no reason" >&2
	exit 1
fi
awk '!/^#/ && NF > 0 { print $1, $2 }' "$list" | sort >"$work/listed"

status=0
if new=$(comm -23 "$work/unreached" "$work/listed") && [ -n "$new" ]; then
	echo "Unreached by every experiment and example, and not in $list:" >&2
	echo "$new" | sed 's/^/  /' >&2
	echo "Run it from a Spec or an example, delete it, or list it with a reason." >&2
	status=1
fi
if gone=$(comm -13 "$work/unreached" "$work/listed") && [ -n "$gone" ]; then
	echo "Listed in $list, but reached (or no longer there):" >&2
	echo "$gone" | sed 's/^/  /' >&2
	echo "Take the line out." >&2
	status=1
fi
if [ "$status" -ne 0 ] && [ -s "$work/log" ]; then
	echo "The runs' stderr:" >&2
	sed 's/^/  /' "$work/log" >&2
fi
[ "$status" -eq 0 ] && echo "$(wc -l <"$work/unreached") unreached functions, all listed in $list"
exit "$status"
