# Verification entry points. `make verify` is the gate every change
# must pass: vet, the project's own static-analysis suite (bomwvet),
# build, the full test suite, and the race detector over the concurrent
# packages (serving pipeline + HTTP server + the fault-injecting
# simulated runtime).

GO ?= go

.PHONY: verify build test test-v3 vet vet-portable lint lint-sarif race stepped handoff bench bench-check smoke-cluster smoke-scenario smoke-chaos soak soak-deadline soak-cluster soak-chaos fuzz

verify: vet lint build test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The port without the assembly (internal/tensor/simd_noasm.go): no
# runner executes it, so build and vet it — a missing stub, or a Go
# declaration that drifted from simd_amd64.s, shows here or in vet's
# asmdecl check above.
vet-portable:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...

# The five project-specific analyzers, for invariants go vet cannot
# see: virtual-clock discipline, lock scope, sentinel errors, context
# placement, goroutine ownership. See internal/lint and DESIGN.md
# "Static analysis".
lint:
	$(GO) run ./cmd/bomwvet ./...

# SARIF 2.1.0 log for GitHub code-scanning annotations. The log is
# written even when findings exist (the `|| true` is NOT here: the
# target preserves bomwvet's exit code so `make lint-sarif` can gate
# too; CI redirects and uploads the file in a separate step).
lint-sarif:
	$(GO) run ./cmd/bomwvet -sarif ./... > bomwvet.sarif

test:
	$(GO) test ./...

# The kernel packages built for x86-64-v3, where the compiler may
# contract the Go kernels' s += x*w into a fused multiply-add. Wherever
# it does, the CPU probe must turn both vector paths off
# (TestProbeTurnsVectorKernelsOffWhereGoFuses); wherever it does not
# (go1.24 fuses only math.FMA), the vector kernels stay on and are held
# to the v3 Go kernels bit for bit. Either way every test must pass.
test-v3:
	GOAMD64=v3 $(GO) test ./internal/tensor/ ./internal/nn/

race:
	$(GO) test -race ./internal/tensor/... ./internal/nn/... ./internal/core/... ./internal/cluster/... ./internal/server/... ./internal/trace/... ./internal/opencl/... ./internal/fault/... ./internal/workload/...

# The stepped-clock tests, fifty times under the race detector (seconds):
# the two timers of the serving path — batching window, recovery
# prober — and the accounting
# identities, each driven by stepping a core.ManualClock. They neither
# sleep nor poll, so a failure here is an ordering bug, not a slow host.
# The admission path rides along: one key filling every admission slot,
# the future contract over shed and closed-pipeline submits, the node
# lifecycle behind the pipeline's one admission gate, and the ledger
# counting a completion before its Wait can return.
stepped:
	$(GO) test -race -count=50 -run 'TestManualClock|TestStepped|TestOneKeyFillsEveryAdmissionSlot|TestFutureContract|TestNode|TestCompletionIsCountedBeforeItIsDelivered' ./internal/core/

# The request hand-off protocol, twenty times under the race detector at
# one and two CPUs (~30 s): a Wait that parks before finish and one that
# arrives after it, a parked Wait cancelled against finish, admission's
# kick under eight submitters, and the flow leaving a request's carrier
# at finish — the race detector is that test's oracle.
handoff:
	$(GO) test -race -count=20 -cpu 1,2 -run 'TestWaitParkedOrLateReadsTheCompletionOnce|TestParkedWaitCancelledAgainstFinishKeepsCompletion|TestFutureWaitRaceNeverLosesCompletion|TestAdmissionNeverLosesAWakeup|TestFlowLeavesCarrierAtFinish' ./internal/core/

BENCHTIME ?= 2s
bench:
	# The cold-start benchmarks at one CPU (lib_simple_burst sets up on one)
	# and two (the HTTP workloads do).
	$(GO) test -run=NONE -bench='BenchmarkNewScheduler|BenchmarkLoadPaperModels' -cpu 1,2 -benchtime=$(BENCHTIME) ./internal/core/
	$(GO) test -run=NONE -bench=BenchmarkBuildDataset -cpu 1,2 -benchtime=$(BENCHTIME) ./internal/characterize/
	$(GO) test -run=NONE -bench=BenchmarkForestFit -cpu 1,2 -benchtime=$(BENCHTIME) ./internal/mlsched/
	# The simulator's ledger (ROADMAP item 13): one decision, one timing-only
	# request, then the served path through one node and through the fleet.
	$(GO) test -run=NONE -bench='^(BenchmarkSelect|BenchmarkEstimate|BenchmarkPipelineServe)$$' -benchtime=$(BENCHTIME) ./internal/core/
	$(GO) test -run=NONE -bench=BenchmarkClusterServe -benchtime=$(BENCHTIME) ./internal/cluster/
	$(GO) test -run=NONE -bench='Conv|MaxPool2D|Linear|Forward' -benchtime=$(BENCHTIME) ./internal/tensor/
	$(GO) test -run=NONE -bench=Forward -benchtime=$(BENCHTIME) ./internal/nn/
	$(GO) test -run=NONE -bench=BenchmarkDecodeClassify -benchtime=$(BENCHTIME) ./internal/server/

# The serving benchmark (BENCHMARK.json) is a Go module of its own, so
# `go test ./...` never builds it: vet it and run its tests, a 200 ms
# smoke of every workload whose traced run checks the unrolled tensor
# kernels against the Network.Classify oracle. This is what notices a
# tensor/nn change that stops bench/ compiling or agreeing.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# Cluster smoke drill (CI): an 8-node fleet under load survives one
# mid-run node kill — the node leaves routing, traffic fails over, no
# dropped futures.
smoke-cluster:
	$(GO) test -race -count=1 -run 'TestClusterSmoke' -v ./internal/cluster/

# Scenario smoke drill (CI): the MLPerf-style Server scenario offered
# open-loop to a live 4-node cluster under the race detector — every
# offered query accounted for, attainment sane.
smoke-scenario:
	$(GO) test -race -count=1 -run 'TestScenarioSmoke' -v ./internal/workload/scenario/

# Chaos smoke drill (CI): a 16-node fleet rides a seeded incident — 2
# flapping crash-window nodes + 2 scripted stragglers — under the race
# detector; every admitted future must resolve and the router must count
# the crash windows' entries.
smoke-chaos:
	$(GO) test -race -count=1 -run 'TestChaosSmoke' -v ./internal/cluster/

# Failure-domain soak: overload + persistent device faults + mid-run
# recovery under the race detector (skipped by -short elsewhere).
soak:
	$(GO) test -race -count=1 -run 'TestSoak' -v ./internal/core/

# Deadline/overload soak: ≥2× saturation with mixed SLOs under the race
# detector — feasible SLOs must keep ≥95% attainment while infeasible
# and expired work is shed or culled.
soak-deadline:
	$(GO) test -race -count=1 -run 'TestSoakDeadlineOverload' -v ./internal/core/

# Fleet acceptance soak: 64 nodes, two mid-run kills, SLO attainment
# within 5 points of the no-fault baseline.
soak-cluster:
	$(GO) test -count=1 -run 'TestSoakClusterTwoKills' -v ./internal/cluster/

# Chaos acceptance soak: the same 16-node seeded incident at full
# horizon, no race detector — feasible-SLO attainment must stay within
# 5 points of the no-fault baseline, the crash windows entered and zero
# lost futures.
soak-chaos:
	$(GO) test -count=1 -run 'TestSoakChaos' -v ./internal/cluster/

# Short-budget fuzzing of the decoders of outside input (state files,
# traces, the /v1/classify request body, the -faults spec) and of the vector kernels
# against the Go kernels they stand in for (internal/tensor; they skip
# on a host without AVX2).
# Seeds always run in plain `make test`; this target mutates beyond them.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoadState -fuzztime $(FUZZTIME) ./internal/core/
	for pkg in ./internal/trace/ ./internal/workload/ ./internal/server/ ./internal/tensor/ ./internal/fault/; do \
		for f in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			$(GO) test -run '^$$' -fuzz $$f -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done
