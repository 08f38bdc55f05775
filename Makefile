# iotlan — build/test/reproduce targets (stdlib-only Go module)

GO ?= go

.PHONY: all build vet test race verify lint reach microbench repro serve examples clean

all: build vet test

# CI gate: vet, build, and the full test suite under the race detector.
# The analysis engine's byte-identical-output contract is exercised here
# (determinism_test.go runs parallel vs sequential under -race).
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race -timeout 45m ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Reachability: builds every program (cmd/, examples/ and the bench/
# harness) with inlining off and fails on any non-test function that none of
# them links, unless cmd/reach/allow.txt gives the reason it stays.
reach:
	$(GO) run ./cmd/reach

# Static analysis beyond vet: staticcheck, pinned so CI runs are
# reproducible. Scope is staticcheck.conf (SA correctness checks). Needs
# network access to fetch the pinned tool on first run — CI wires this in;
# offline dev environments fall back to `make vet`.
STATICCHECK_VERSION ?= 2025.1.1
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

test:
	$(GO) test ./... 2>&1 | tee test_output.txt

# Race-detector pass over the whole module (telemetry counters are the only
# shared state; they must stay clean under -race).
race:
	$(GO) test -race ./... 2>&1 | tee race_output.txt

# Run the capture-ingestion service on :8080.
serve:
	$(GO) run ./cmd/iotserve -addr :8080

# go-test micro benchmarks (per-layer throughput, allocation counts).
microbench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerate every table and figure (writes repro_output.txt).
repro:
	$(GO) run ./cmd/iotrepro -seed 7 -idle 45m -interactions 120 -households 3860 | tee repro_output.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/threatscan
	$(GO) run ./examples/fingerprint
	$(GO) run ./examples/honeypot

clean:
	rm -f test_output.txt bench_output.txt race_output.txt
