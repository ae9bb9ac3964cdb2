#!/usr/bin/env bash
# `make loc`: non-test Go lines outside bench/, per package directory and
# in total — the figure ROADMAP and every simplicity PR quote. Plain
# `wc -l` over the files git tracks plus untracked ones not ignored, so
# it reads the same on a checkout and on a dirty tree.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
git ls-files -co --exclude-standard -- '*.go' |
	grep -v -e '_test\.go$' -e '^bench/' |
	while read -r f; do
		[ -f "$f" ] || continue # deleted in the tree, not yet in the index
		echo "$(wc -l <"$f") $(dirname "$f")"
	done |
	awk '{n[$2] += $1; total += $1}
		END {for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", total}' |
	sort -k1,1nr -k2
