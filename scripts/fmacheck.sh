#!/usr/bin/env bash
# `make fmacheck`: the pollution path and the simulated datasets compute
# the same float bits on every architecture. Go may fuse x*y + z into one
# multiply-add where the target has the instruction (arm64, riscv64,
# ppc64, s390x), which rounds once instead of twice and so changes the
# generated data, the polluted values, the log and every digest against
# amd64. Writing float64(x*y) + z forbids the fusion.
#
# The script cross-compiles cmd/icewafl, cmd/gendata and cmd/paper
# (which links all six experiments) for arm64 and riscv64 and fails on
# any FMADD/FMSUB/FNMADD/FNMSUB instruction (D or S form) in a symbol of
# icewafl/internal/core, rng, config, dataset, experiments or synth —
# the packages that decide stream bytes and the experiment tables
# TestExperimentGoldens pins. An inlined callee counts against its
# caller's symbol, which is how stats.SampleVariance is held (inlined
# into experiments.RunExp1Random).
# Still left out:
#   - internal/forecast, stats, anomaly and clean on their own: they
#     consume benchmark data rather than produce it;
#   - internal/plot, stream.RetryPolicy.delay and netstream's token
#     bucket: a chart, a retry back-off and a rate limit, no stream bytes.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for arch in arm64 riscv64; do
	for cmd in icewafl gendata paper; do
		GOOS=linux GOARCH=$arch CGO_ENABLED=0 "$GO" build -o "$tmp/$cmd.$arch" ./cmd/$cmd
		hits=$("$GO" tool objdump "$tmp/$cmd.$arch" | awk '
			/^TEXT / { sym = $2; next }
			sym ~ /^icewafl\/internal\/(core|rng|config|dataset|experiments|synth)\./ && /[[:space:]]F(N)?M(ADD|SUB)/ { n[sym]++ }
			END { for (s in n) printf "  %s (%d)\n", s, n[s] }' | sort)
		if [ -n "$hits" ]; then
			echo "fmacheck: fused multiply-adds in cmd/$cmd on $arch:"
			echo "$hits"
			status=1
		fi
	done
done
[ "$status" -eq 0 ] && echo "fmacheck: no fused multiply-adds in core, rng, config, dataset, experiments or synth (arm64, riscv64)"
exit "$status"
