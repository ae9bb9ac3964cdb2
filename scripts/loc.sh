#!/usr/bin/env bash
# `make loc`: non-test Go lines outside bench/, per package directory and
# in total — the figure ROADMAP and every simplicity PR quote — then the
# test lines (_test.go outside bench/) as one more total. Plain `wc -l`
# over the files git tracks plus untracked ones not ignored, so it reads
# the same on a checkout and on a dirty tree.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# lines FILE... on stdin: "<lines> <dir>" per file that exists (a file
# deleted in the tree may still be in the index).
lines() {
	while read -r f; do
		[ -f "$f" ] || continue
		echo "$(wc -l <"$f") $(dirname "$f")"
	done
}

files=$(git ls-files -co --exclude-standard -- '*.go' | grep -v '^bench/')
grep -v '_test\.go$' <<<"$files" | lines |
	awk '{n[$2] += $1; total += $1}
		END {for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", total}' |
	sort -k1,1nr -k2
grep '_test\.go$' <<<"$files" | lines |
	awk '{total += $1} END {printf "%7d  test lines (_test.go, not in total)\n", total}'
