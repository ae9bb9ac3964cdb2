# Icewafl build & CI entry points. `make ci` is what the robustness gate
# runs: formatting, static analysis, the panic lint, the cross-arch FMA
# check, the 32-bit test leg and the full test suite under the race
# detector. `make perfgate` is the perf-regression
# gate (see DESIGN.md §8).

GO ?= go

.PHONY: build test vet fmt lint fmacheck test386 race racehot integration loadtest loadtest-restart chaos stress benchmod ci cover perfgate fuzz loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt as a check: fails listing the offending files, fixes nothing.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; \
	fi

# Panic lint: the hot-path packages must not panic except where a
# `lint:allowpanic` marker documents a deliberate Must*/constructor
# contract. Everything else returns errors.
# Filesystem-seam lint: internal/netstream's state-dir I/O goes through
# netstream.FS (so chaos.FaultFS can fail it); only osFS's methods call
# the os filesystem functions.
lint:
	@bad=$$(grep -n 'panic(' internal/stream/*.go internal/core/*.go \
		| grep -v '_test.go' | grep -v 'lint:allowpanic' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: unannotated panic() in hot-path packages:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(awk '/^func \(osFS\)/ { osfs = 1 } \
		!osfs && /(^|[^A-Za-z0-9_])os\.(Stat|Open|OpenFile|ReadFile|WriteFile|Remove|RemoveAll|Rename|Mkdir|MkdirAll)\(/ { print FILENAME ":" FNR ": " $$0 } \
		/^}/ || /^func .*}$$/ { osfs = 0 }' $$(ls internal/netstream/*.go | grep -v '_test.go')); \
	if [ -n "$$bad" ]; then \
		echo "lint: os filesystem call outside osFS in internal/netstream (use netstream.FS):"; echo "$$bad"; exit 1; \
	fi

# Same float bits on every architecture: cross-compiles cmd/icewafl,
# cmd/gendata and cmd/paper (every experiment) for arm64, riscv64,
# ppc64le and s390x and fails on a fused multiply-add in core, rng,
# config, dataset, experiments, synth, timeseries or stream (see the
# script's header for what is left out).
fmacheck:
	@GO=$(GO) bash scripts/fmacheck.sh

# The experiment goldens, the engine, the golden CLI, rng's Normal
# digest and the float text kernel's oracle against strconv (stream's
# fuzz seeds) run with a 32-bit int and the pure-Go math (GOARCH=386
# runs natively on amd64, no emulator needed).
test386:
	GOARCH=386 $(GO) test ./internal/experiments ./internal/core ./internal/rng ./internal/stream ./cmd/icewafl

race:
	$(GO) test -race ./...

# Focused race pass over the concurrent hot paths the observability
# layer instruments (lock-free counters under sharded workers) plus the
# service runtime's hub/WAL/session machinery and the chaos harness
# that hammers it, and the CSV reader whose cell arrays a run hands
# back. Runs with -count=2 so the second pass exercises warmed
# per-worker cells.
racehot:
	$(GO) test -race -count=2 ./internal/obs/ ./internal/core/ ./internal/stream/ ./internal/csvio/ ./internal/dq/ ./internal/netstream/ ./internal/chaos/

# Service-layer integration pass: the netstream hub/server/client suite
# plus the real icewafld binary serving the golden examples/cli pipeline
# over loopback to concurrent subscribers (one deliberately slow), under
# the race detector. Asserts byte-identical streams across clients and
# flow conservation (frames received == frames published). The
# icewafload leg is the scaled-down multi-tenant load run: 8 sessions ×
# 32 subscribers through the REST control plane, zero gap errors, quota
# rejections only where configured, every stream byte-identical to a
# direct in-process run.
integration:
	$(GO) test -race -count=1 ./internal/netstream/ ./cmd/icewafld/ ./cmd/icewafload/

# Multi-tenant load pass: the session-service suite (quota enforcement,
# durable WAL budgets, subscribe/close races, bounded delete of wedged
# sessions) plus the icewafload harness driving the real daemon, all
# under -race.
loadtest:
	$(GO) test -race -count=1 ./cmd/icewafload/
	$(GO) test -race -count=1 ./internal/netstream/ -run 'TestService|TestHubSubscribe|TestSubscriberGauges'

# Restart variant of the load pass: icewafload loads a durable
# (-state-dir) daemon with -keep, the daemon is SIGKILLed and restarted
# over the same state dir, and a second -attach run must reproduce the
# exact pre-restart digests with zero gap errors.
loadtest-restart:
	$(GO) test -race -count=1 ./cmd/icewafload/ -run 'Restart'

# Chaos pass: the fault-injection suite (proxy faults, disk faults,
# kill-and-recover e2e for both the single pipeline and the durable
# multi-tenant session fleet) under the race detector with a short
# schedule — every run crosses real SIGKILLs, torn WAL tails and
# mid-frame connection kills, and the icewafload leg re-verifies a
# restarted session daemon digest-for-digest. The netstream leg runs the
# session log's truncation sweep (a restart on the log cut at every
# record boundary and inside every record) and the recovery suites.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/ ./cmd/icewafld/ -run 'Chaos|Proxy|FaultFS|CrashRecovery|WAL|MidFrameKills|PartialWriteKill'
	$(GO) test -race -count=1 ./internal/netstream/ -run 'SessionLog|Recover|Checkpoint'
	$(GO) test -race -count=1 ./cmd/icewafload/ -run 'Restart'

# Stress pass: the session-service, hub and single-pipeline suites
# twenty times over, to flush teardown races a single run only loses
# occasionally (the delete-while-running error race hid at ~1 run in 3).
# The single-pipeline tests run as a service's unnamed session, so they
# tear down through the same Service.Close. The sharded runner's
# channel handoff and ticket merge get the same treatment.
stress:
	$(GO) test -count=20 ./internal/netstream/ -run 'TestService|TestHub|TestServer'
	$(GO) test -count=20 ./internal/core/ -run 'Shard|RunnerLogEquivalence'

# bench/ is its own module, so the root `go test ./...` never compiles
# it; vet and test it here so an API rename in core or netstream cannot
# break the benchmark silently.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: fmt vet lint fmacheck test386 race integration loadtest stress benchmod

# Coverage floor for the engine packages. The threshold is deliberately
# conservative; raise it as the suites grow.
COVER_MIN ?= 83

cover:
	$(GO) test -coverprofile=cover.out ./internal/stream/ ./internal/core/ ./internal/obs/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk "BEGIN { exit !($$total >= $(COVER_MIN)) }" || \
		{ echo "cover: total coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# Perf-regression gate: bench/ (BENCHMARK.json) on the parent commit and
# on the tree, in alternating pairs; fails on a row `bench/run.sh
# compare` judges `worse` in every pair, or any failed operation. Takes
# ~7 minutes.
perfgate:
	bash scripts/perfgate.sh

# Short fuzz pass over every fuzz target (value parsing, the float text
# kernel against strconv, the quarantine of malformed tuples, the CSV
# writer and reader against encoding/csv, the metrics,
# WAL and frame codecs (the colbatch frame codec stays while the
# benchmark's budget layer still encodes such frames), the session log's
# per-channel index against a model, the log entry renderer against
# encoding/json, and generated pollution documents through every
# execution shape).
# Extend FUZZTIME for deeper runs.
FUZZTIME ?= 15s

fuzz:
	$(GO) test ./internal/stream/ -run '^$$' -fuzz FuzzParseValue -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream/ -run '^$$' -fuzz FuzzFloatText -fuzztime $(FUZZTIME)
	$(GO) test ./internal/csvio/ -run '^$$' -fuzz FuzzQuarantine -fuzztime $(FUZZTIME)
	$(GO) test ./internal/csvio/ -run '^$$' -fuzz FuzzWriterMatchesEncodingCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/csvio/ -run '^$$' -fuzz FuzzReaderMatchesEncodingCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzMetricsJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dq/ -run '^$$' -fuzz FuzzSuiteJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream/ -run '^$$' -fuzz FuzzWALRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream/ -run '^$$' -fuzz FuzzWALTornTail -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream/ -run '^$$' -fuzz FuzzSessionLogIndex -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream/ -run '^$$' -fuzz FuzzColumnarFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream/ -run '^$$' -fuzz FuzzColumnarTornFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream/ -run '^$$' -fuzz FuzzFrameCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzEntryJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config/ -run '^$$' -fuzz FuzzShapeEquivalence -fuzztime $(FUZZTIME)

# Non-test Go lines outside bench/, per package and in total: the size
# figure ROADMAP quotes and simplicity PRs are held to. The last line is
# the test-line total (_test.go outside bench/).
loc:
	@bash scripts/loc.sh

clean:
	$(GO) clean ./...
	rm -f cover.out
	rm -rf bench/out bench/bench
