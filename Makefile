GO ?= go

.PHONY: all build lint test race bench fuzz-smoke crashsmoke repro chaos verify-envelope loc clean

all: build lint test

build:
	$(GO) build ./...

# Static analysis: gofmt (the tree must be formatted), go vet and the
# majorcanlint multichecker — all eight analyzers: the determinism,
# hot-path, telemetry and atomics contracts (DESIGN.md §9) and the
# concurrency-safety suite — lockorder, ctxflow,
# goleak, errsink (DESIGN.md §13). The tree must stay at zero findings;
# intentional exceptions carry `//lint:allow <analyzer> -- <reason>`
# annotations, each with a reviewable reason.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/majorcanlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# BENCHTIME=1x gives a fast smoke pass; raise it for stable numbers
# (e.g. BENCHTIME=2s). Results land in $(BENCH_OUT) as test2json lines
# for machine consumption — cmd/benchdiff compares two such files and
# is the CI regression gate on bitslots/s.
BENCHTIME ?= 1x
BENCH_OUT ?= BENCH_pr10.json

# -p 1 serializes the per-package test binaries: without it `go test
# ./...` runs several benchmark processes at once and they steal each
# other's cores, depressing every number.
bench:
	$(GO) test -p 1 -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -json ./... | tee $(BENCH_OUT)

# Short coverage-guided fuzz pass over the bit-stuffing codec (the CI
# smoke); raise FUZZTIME locally for a deeper run.
FUZZTIME ?= 30s

fuzz-smoke:
	$(GO) test -fuzz=FuzzDestuff -fuzztime=$(FUZZTIME) -run '^$$' ./internal/frame

# Kill-and-recover smoke: SIGKILL a real mcservd (the re-executed test
# binary running serve.DaemonMain) at CRASH_POINTS randomized points
# mid-campaign, restart it on the same spool, and assert no accepted job
# is lost, no partial result is served, and the recovered results are
# byte-identical to an uninterrupted run (DESIGN.md §11).
CRASH_POINTS ?= 20

crashsmoke:
	CRASH_POINTS=$(CRASH_POINTS) $(GO) test ./internal/serve/ -run TestKillAndRecover -count=1 -v -timeout 20m

# Regenerate every table and figure of the paper: the cmd/paper
# subcommands, then the Monte Carlo measurement of CAN against MajorCAN_5.
repro:
	$(GO) run ./cmd/paper table1
	$(GO) run ./cmd/paper scenarios -fig all -trace=false
	$(GO) run ./cmd/paper overhead
	$(GO) run ./cmd/paper tolerance
	$(GO) run ./cmd/mcsim -policy can -frames 2500 -berstar 0.02 -seed 7
	$(GO) run ./cmd/mcsim -policy majorcan_5 -frames 2500 -berstar 0.02 -seed 7

# Fault-injection campaign: rediscover the Fig. 3a counterexample on
# standard CAN, shrink it, and verify the replay artifact bit-for-bit.
chaos:
	$(GO) run ./cmd/chaos -policy can -trials 200 -kinds view-flip -probes agreement -seed 12 -stopfirst -out findings/
	$(GO) run ./cmd/chaos -replay findings/finding_000.json

# Exhaustive verification of MajorCAN_5 over its complete design envelope
# with `paper verify` (all <=5-flip patterns; ~25.7M simulations, each restored from one
# pre-EOF snapshot per worker, with the rest of the run memoized on the
# joint state once the EOF episodes settle; ~2 min on 2 vCPUs,
# EXPERIMENTS.md).
verify-envelope:
	$(GO) run ./cmd/paper verify -policy majorcan_5 -k 5 -parallel 8

# Non-test Go line counts: the whole tree (the figure CHANGES.md and
# ROADMAP.md track) and the service package, the largest one.
loc:
	@printf 'tree           %s\n' "$$(find internal cmd majorcan examples -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@printf 'internal/serve %s\n' "$$(find internal/serve -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
