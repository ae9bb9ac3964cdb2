#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write stays under bench/out/. With no arguments it runs every
# workload (-all); the acceptance driver passes
#   --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
if [ "${1:-}" = compare ] && [ $# -eq 3 ]; then
	# The harness runs in bench/; the two files are named from here.
	set -- compare "$(realpath "$2")" "$(realpath "$3")"
fi
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -o out/bench .
exec out/bench "$@"
