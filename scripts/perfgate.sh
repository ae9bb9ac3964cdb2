#!/usr/bin/env bash
# The perf gate (`make perfgate`): checks the parent commit out beside
# the tree, runs the benchmark (bench/run.sh -all) on both in
# alternating order so neither side always runs first, and compares each
# pair with `bench/run.sh compare`. It fails when an end-to-end row
# reads `worse` in every pair — a real regression shows whichever side
# ran first; a row worse in one order only is this box, and is printed —
# or when any operation failed. `unresolved` rows (too noisy to judge)
# are printed, not failed. A claimed gain needs the ten pairs and second
# seed of bench/README.md; this gate only looks for regressions.
set -euo pipefail

# One pair in each order. Fixed, so every run of the gate is the same
# experiment.
PAIRS=2

root=$(git rev-parse --show-toplevel)
cd "$root"
# A clean tree is a commit under test: gate it against its parent. A
# dirty tree is work in progress: gate it against HEAD.
base=HEAD^
git diff --quiet HEAD -- || base=HEAD

parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
git archive "$base" | tar -x -C "$parent"

# run CHECKOUT: benchmarks that checkout, shows its progress on stderr
# and prints the result file's path. A failed operation makes run.sh,
# and so the gate, exit non-zero.
run() {
	bash "$1/bench/run.sh" -all | tee "$parent/run.txt" >&2 || return 1
	echo "$1/bench/$(sed -n 's/^result file: //p' "$parent/run.txt")"
}

for pair in $(seq "$PAIRS"); do
	if [ $((pair % 2)) -eq 1 ]; then
		a=$(run "$parent")
		b=$(run "$root")
	else
		b=$(run "$root")
		a=$(run "$parent")
	fi
	echo "perfgate: pair $pair of $PAIRS — A is $base, B is the tree"
	bash bench/run.sh compare "$a" "$b" | tee "$parent/compare-$pair.txt"
done

# "workload metric" of every worse row, with the number of pairs it was
# worse in.
worse=$(cat "$parent"/compare-*.txt | awk '$NF == "worse" {print $1, $2}' | sort | uniq -c)
[ -z "$worse" ] || printf 'perfgate: rows that read worse (pairs, workload, metric):\n%s\n' "$worse"
if grep -Eq 'failed operations differ|missing from one of the files' "$parent"/compare-*.txt ||
	echo "$worse" | awk -v n="$PAIRS" '$1 == n {found = 1} END {exit !found}'; then
	echo "perfgate: FAIL — worse than $base in all $PAIRS pairs, or an operation failed (see above)"
	exit 1
fi
echo "perfgate: ok — no row worse than $base in every pair, no failed operation"
