#!/usr/bin/env bash
# Runs every mutant in docs/mutants.txt against the test that must kill
# it, and fails if one survives.
#
# Each entry names a file, a snippet that occurs exactly once in it, the
# snippet's replacement, a package, a -run pattern and an optional build
# tag. The script writes the mutated file into a temporary directory and
# runs `go test -overlay` on the package with the pattern (the flag given
# through GOFLAGS): the tree is never edited. It fails when
#   - an entry's snippet is missing from its file, or occurs more than
#     once (the code moved: update the entry in the same change),
#   - the pattern fails, or runs no test, without the mutant,
#   - the mutated package does not build, or
#   - the pattern passes with the mutant (it survived).
#
# Run from anywhere in the repository: bash scripts/mutants.sh
set -euo pipefail
export LC_ALL=C
shopt -u patsub_replacement 2>/dev/null || true
cd "$(dirname "$0")/.."
root=$(pwd)
list=docs/mutants.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
count=0
keys="file find replace package run tags pr"
declare -A e

# fail reports the current entry's failure and marks the run failed.
fail() {
	echo "FAIL $list:${e[line]} (${e[mutant]}): $*" >&2
	status=1
}

# gotest runs the entry's pattern in its package, over the overlay file
# given (if any), and leaves the output in $work/out. The overlay goes in
# through GOFLAGS, where the root package's source checks find it too
# (copyout_test.go's buildOverlay): they read files, not the build.
gotest() {
	local args=(test -count=1 -run "${e[run]}") flags=${GOFLAGS:-}
	[ "${e[tags]}" != "-" ] && args+=(-tags "${e[tags]}")
	[ -n "${1:-}" ] && flags="${flags:+$flags }-overlay=$1"
	GOFLAGS=$flags go "${args[@]}" "${e[package]}" >"$work/out" 2>&1
}

# check runs the entry read last, if there is one.
check() {
	[ -n "${e[mutant]:-}" ] || return 0
	local k
	for k in $keys; do
		if [ -z "${e[$k]+set}" ]; then
			fail "no $k: line"
			return
		fi
	done
	count=$((count + 1))
	local file=${e[file]} target="$root/${e[file]}" find replace content rest n=0
	printf -v find '%b' "${e[find]}"
	printf -v replace '%b' "${e[replace]}"
	if [ -z "$find" ] || [ ! -f "$target" ]; then
		fail "no snippet, or no file $file"
		return
	fi
	content=$(<"$target")
	rest=$content
	while [[ $rest == *"$find"* ]]; do
		rest=${rest#*"$find"}
		n=$((n + 1))
	done
	if [ "$n" -ne 1 ]; then
		fail "the snippet occurs $n times in $file, not once"
		return
	fi
	if ! gotest || grep -q '^testing: warning: no tests to run' "$work/out"; then
		cat "$work/out" >&2
		fail "-run ${e[run]} in ${e[package]} fails, or runs nothing, without the mutant"
		return
	fi
	local dir="$work/m$count"
	mkdir "$dir"
	printf '%s\n' "${content/"$find"/"$replace"}" >"$dir/$(basename "$file")"
	printf '{"Replace":{"%s":"%s"}}\n' "$target" "$dir/$(basename "$file")" >"$dir/overlay.json"
	if gotest "$dir/overlay.json"; then
		fail "survived: -run ${e[run]} in ${e[package]} passes with the mutant"
	elif grep -qE '\[(build|setup) failed\]' "$work/out"; then
		cat "$work/out" >&2
		fail "the mutated package does not build"
	else
		echo "killed: ${e[mutant]} (${e[package]} -run ${e[run]}, tags ${e[tags]})"
	fi
}

lineno=0
while IFS= read -r l || [ -n "$l" ]; do
	lineno=$((lineno + 1))
	case $l in
	'#'* | '') continue ;;
	esac
	key=${l%%:*}
	val=${l#*:}
	val=${val#"${val%%[![:space:]]*}"}
	case " mutant $keys " in
	*" $key "*) ;;
	*)
		echo "$list:$lineno: unknown key $key" >&2
		status=1
		continue
		;;
	esac
	if [ "$key" = mutant ]; then
		check
		e=([line]=$lineno)
	fi
	e[$key]=$val
done <"$list"
check
if [ "$count" -eq 0 ]; then
	echo "$list holds no mutant" >&2
	exit 1
fi
if [ "$status" -ne 0 ]; then
	echo "$count mutants: not all killed, see above" >&2
	exit 1
fi
echo "$count mutants, all killed"
