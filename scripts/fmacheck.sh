#!/usr/bin/env bash
# `make fmacheck`: the pollution path computes the same float bits on
# every architecture. Go may fuse x*y + z into one multiply-add where the
# target has the instruction (arm64, riscv64, ppc64, s390x), which rounds
# once instead of twice and so changes the polluted values, the log and
# every digest against amd64. Writing float64(x*y) + z forbids the fusion.
#
# The script cross-compiles cmd/icewafl for arm64 and riscv64 and fails
# on any FMADD/FMSUB/FNMADD/FNMSUB instruction (D or S form) in a symbol
# of icewafl/internal/core, rng or config — the packages that decide
# stream bytes. Left out for now: internal/dataset generates the input
# data rather than polluting it, and internal/plot and
# stream.RetryPolicy.delay compute no stream bytes at all (a chart, a
# retry back-off).
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for arch in arm64 riscv64; do
	GOOS=linux GOARCH=$arch CGO_ENABLED=0 "$GO" build -o "$tmp/icewafl.$arch" ./cmd/icewafl
	hits=$("$GO" tool objdump "$tmp/icewafl.$arch" | awk '
		/^TEXT / { sym = $2; next }
		sym ~ /^icewafl\/internal\/(core|rng|config)\./ && /[[:space:]]F(N)?M(ADD|SUB)/ { n[sym]++ }
		END { for (s in n) printf "  %s (%d)\n", s, n[s] }' | sort)
	if [ -n "$hits" ]; then
		echo "fmacheck: fused multiply-adds on $arch:"
		echo "$hits"
		status=1
	fi
done
[ "$status" -eq 0 ] && echo "fmacheck: no fused multiply-adds in core, rng or config (arm64, riscv64)"
exit "$status"
