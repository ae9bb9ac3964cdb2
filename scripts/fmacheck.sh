#!/usr/bin/env bash
# `make fmacheck`: the pollution path and the simulated datasets compute
# the same float bits on every architecture. Go may fuse x*y + z into one
# multiply-add where the target has the instruction (arm64, riscv64,
# ppc64, s390x), which rounds once instead of twice and so changes the
# generated data, the polluted values, the log and every digest against
# amd64. Writing float64(x*y) + z forbids the fusion.
#
# The script cross-compiles cmd/icewafl, cmd/gendata and cmd/paper
# (which links all six experiments) for arm64, riscv64, ppc64le and
# s390x and fails on any fused multiply-add in a symbol of
# icewafl/internal/core, rng, config, dataset, experiments, synth or
# timeseries — the packages that decide stream bytes and the experiment
# tables TestExperimentGoldens pins (timeseries builds Exp 2's time
# encodings). An inlined callee counts against its
# caller's symbol, which is how stats.SampleVariance is held (inlined
# into experiments.RunExp1Random). The mnemonics, as `go tool objdump`
# prints them: FMADD/FMSUB/FNMADD/FNMSUB with a D or S suffix on arm64
# and riscv64, FMADD/FMSUB/FNMADD/FNMSUB (optionally S) on ppc64le, and
# MADB/MSDB/MAEB/MSEB (optionally R) on s390x.
# Still left out:
#   - internal/forecast, stats, anomaly and clean on their own: they
#     consume benchmark data rather than produce it;
#   - internal/plot, stream.RetryPolicy.delay and netstream's token
#     bucket: a chart, a retry back-off and a rate limit, no stream bytes;
#   - the standard library's pure-Go math, which the scan cannot see
#     because it matches icewafl/... symbols only. On arm64 `go tool
#     objdump` counts 16 fused ops in each of math.sin and math.cos. Their
#     callers decide stream bytes: core's sinusoid parameter (math.Cos),
#     dataset's air-quality simulator (math.Sin/math.Cos) and Exp 2's
#     sine/cosine time encodings in timeseries. math.log and math.pow
#     are no longer among them: rng.Normal carries its own rounded log,
#     and round_precision scales by a table of exact powers of ten.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for arch in arm64 riscv64 ppc64le s390x; do
	for cmd in icewafl gendata paper; do
		GOOS=linux GOARCH=$arch CGO_ENABLED=0 "$GO" build -o "$tmp/$cmd.$arch" ./cmd/$cmd
		hits=$("$GO" tool objdump "$tmp/$cmd.$arch" | awk '
			/^TEXT / { sym = $2; next }
			sym ~ /^icewafl\/internal\/(core|rng|config|dataset|experiments|synth|timeseries)\./ && /[[:space:]](F(N)?M(ADD|SUB)|M[AS][DE]BR?[[:space:]])/ { n[sym]++ }
			END { for (s in n) printf "  %s (%d)\n", s, n[s] }' | sort)
		if [ -n "$hits" ]; then
			echo "fmacheck: fused multiply-adds in cmd/$cmd on $arch:"
			echo "$hits"
			status=1
		fi
	done
done
[ "$status" -eq 0 ] && echo "fmacheck: no fused multiply-adds in core, rng, config, dataset, experiments, synth or timeseries (arm64, riscv64, ppc64le, s390x)"
exit "$status"
