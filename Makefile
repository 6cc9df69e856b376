GO ?= go
FUZZTIME ?= 10s

# Every fuzz target in the tree, as package:target pairs.
FUZZ_TARGETS := \
	./internal/wire:FuzzDecoder \
	./internal/wire:FuzzReadFrame \
	./internal/wire:FuzzWireFrameV \
	./internal/wire:FuzzFrameStream \
	./internal/wire:FuzzPlacedFrameStream \
	./internal/wire:FuzzCRC32C \
	./internal/dad:FuzzDecodeTemplate \
	./internal/dad:FuzzDecodeDescriptor \
	./internal/schedule:FuzzPlanEquivalence \
	./internal/schedule:FuzzStridedKernels \
	./internal/redist:FuzzFromLinear \
	./internal/session:FuzzSessionFrame \
	./internal/comm:FuzzRemoteFrame

.PHONY: all build test test-cpu race chaos chaos-net fuzz-short vet loc bench-once bench-plan bench-check examples staticcheck govulncheck

all: build test

build:
	$(GO) build ./...

# Shuffled to flush inter-test ordering dependencies; -count=1 defeats the
# test cache so every run actually executes.
test:
	$(GO) test -shuffle=on -count=1 ./...

# The engine, session and frame-reading packages at one P and at two. At
# one P the session's group commit decides which sends share a write (a
# small send yields once before writing), and a frame reader's choice
# between refilling its slab and moving to a fresh one races with views
# put back from other goroutines; goroutine interleavings differ from two
# Ps, so every test of these packages runs in both regimes.
test-cpu:
	$(GO) test -cpu 1,2 -count=1 ./internal/session ./internal/comm ./internal/redist ./internal/prmi ./internal/chaosnet ./internal/wire ./internal/transport ./internal/bufpool

# The concurrency-heavy packages (comm, transport, faultconn, prmi, core)
# are race-clean; run the whole tree under the detector.
race:
	$(GO) test -race ./...

# The chaos soak: rank-crash and fault-injection survivability tests, under
# the race detector with a hard timeout so a hang fails instead of wedging.
chaos:
	$(GO) test -race -run Chaos -count=1 -timeout 120s ./...

# The network chaos soak: fenced transfers and PRMI calls between worlds
# coupled over real TCP with session-layer reconnection, while the physical
# links flap and, finally, die past the redial budget.
chaos-net:
	$(GO) test -race -run ChaosNet -count=1 -timeout 120s ./internal/chaosnet/

# Run each fuzz target for a short, CI-sized budget. Crash inputs land in
# <pkg>/testdata/fuzz/<Target>/ and become regression seeds.
fuzz-short:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# Vet, then vet again as arm64 (the frame CRC-32C has an amd64 assembly
# kernel and a stub elsewhere: this keeps the stub compiling and asmdecl
# checking both builds), then fail on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Non-test Go line counts, per package the simplification work tracks and
# for the whole module (bench/ is its own module and is not counted).
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l; }; \
	for d in internal/redist mxn.go internal/schedule internal/wire internal/prmi internal/transport internal/session internal/comm internal/core internal/cca internal/frameworks cmd; do \
		printf '%-20s %6d\n' $$d $$(count $$d); \
	done; \
	printf '%-20s %6d\n' module $$(count .)

# Run every testing.B benchmark once. `go test` without -bench never
# executes a benchmark, and the paper's benchmark tables (B1–B11) exist
# only as benchmarks, so this is what keeps them running.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The planner's tables: B1 (ScheduleBuild), B3's Build rows and B2
# (ScheduleReuse), with allocations, at one P and two, five counts each,
# so every planner change reports them the same way.
bench-plan:
	$(GO) test -run '^$$' -bench 'ScheduleBuild|DistributionKinds/.*/Build|ScheduleReuse' -benchmem -cpu 1,2 -count 5 .

# The coupling benchmark (bench/, BENCHMARK.json) is a Go module of its own
# that `go test ./...` at the root does not see, so a product signature
# change that breaks it would otherwise surface only when the benchmark is
# next run. Vet and test it against this checkout, then run all four
# workloads for three seconds each, traced: bulk_tcp's 2 MiB messages are
# lent as views of their source, and each is sent only once its receiver
# has posted its destination and said so with a ready token, so every one
# is read with readv(2) straight into that destination; bulk_tcp,
# small_tcp and resize_inproc reach the engine through its deprecated
# one-shot wrappers (redist.ExchangeT, redist.ReconfigureFencedT). Each
# result must be correct and every pooled buffer must be back at the end,
# and on bulk_tcp no 2 MiB message may have been packed or read into a
# pooled buffer: redist.peak_packed_bytes stays below 2 MiB.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	@for w in prmi_tcp bulk_tcp small_tcp resize_inproc; do \
		out=$$(bash bench/run.sh --workload $$w --seconds 3 --trace 1 | tail -n 1); \
		for want in '"correct":true' '"bufpool.outstanding_end":{"value":0,'; do \
			echo "$$out" | grep -qF "$$want" || { echo "bench-check: $$w result lacks $$want: $$out"; exit 1; }; \
		done; \
		if [ $$w = bulk_tcp ]; then \
			peak=$$(echo "$$out" | sed -n 's/.*"redist.peak_packed_bytes":{"value":\([^,}]*\).*/\1/p'); \
			awk -v p="$$peak" 'BEGIN { exit !(p != "" && p + 0 < 2097152) }' || \
				{ echo "bench-check: bulk_tcp redist.peak_packed_bytes = $$peak: a 2 MiB message arrived unplaced"; exit 1; }; \
			echo "bench-check: bulk_tcp redist.peak_packed_bytes = $$peak, every 2 MiB message placed"; \
		fi; \
		echo "bench-check: $$w correct, no pooled buffer outstanding"; \
	done

# Run every example main, every mxnbench experiment and the Figure 4
# feature probes once, each under a timeout. Each checks its own results
# and exits non-zero when it fails, and `go test` builds none of them.
examples:
	@set -e; for p in $$(ls -d examples/*/) cmd/mxnbench cmd/featurematrix; do \
		echo "== go run ./$$p"; \
		timeout 120 $(GO) run ./$$p || { echo "examples: $$p failed"; exit 1; }; \
	done

# Lint/vuln targets degrade to a notice when the tool isn't on PATH, so
# offline checkouts aren't forced to install anything; CI installs both.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
