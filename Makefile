GO ?= go

# Packages with the concurrency-heavy machinery; they get a dedicated
# race-detector tier in `make check`.
RACE_PKGS := ./internal/core/... ./internal/wire/... ./internal/server/... ./internal/storage/... ./internal/transport/... ./internal/telemetry/... ./internal/recman/... ./internal/locallog/... ./internal/loadassign/... ./internal/retention/...

.PHONY: all build test race check bench vet fmt crashaudit soak perfbench lines

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

fmt:
	$(GO) fmt ./...

# lines prints the net count of non-test Go lines outside perfbench/,
# the figure the simplicity gates in ROADMAP.md are measured in.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# crashaudit kills the client (or its servers) at every registered
# crash point, recovers, and audits the Section 3.1 invariants — a
# deterministic sweep of all points plus randomized crash/recover
# iterations under a lossy network (see DESIGN.md, "Crash-point map").
# Long soaks: make crashaudit CRASHAUDIT_ITERS=5000
CRASHAUDIT_ITERS ?= 200
crashaudit:
	$(GO) run ./cmd/crashaudit -iters $(CRASHAUDIT_ITERS)

# soak runs the full-scale Section 5.3 log-space soak: a simulated
# week of ET1 with periodic sharp checkpoints over segmented stores
# and background compactors; the hot-segment disk footprint must
# plateau. (The plain test suite runs a miniature version of the same
# test.)
soak:
	DISTLOG_SOAK=1 $(GO) test ./internal/recman/ -run TestSoakET1WeekDiskPlateau -v -timeout 30m -count=1

# perfbench/ is a Go module of its own (it imports this one through a
# replace directive), so `go build ./...` above never compiles it. This
# step does, so a change that removes an API the benchmark uses fails
# here rather than in the benchmark run. Binaries land in the ignored
# .bench_build/ directory.
perfbench:
	cd perfbench && GOWORK=off $(GO) build -o ../.bench_build/check/ ./... && GOWORK=off $(GO) vet ./...

# check is the CI gate: tier-1 build+tests, vet, the race tier over the
# client/wire/server packages, the crash-point audit, and the benchmark
# module's build.
check: build test vet race crashaudit perfbench

# bench runs the write-path and read-path benchmarks and records the
# results in BENCH_writepath.json and BENCH_readpath.json (see bench.sh).
bench:
	./bench.sh
