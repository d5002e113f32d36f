GO ?= go

# bench knobs: BENCHTIME=2s for longer samples, BENCH_SECTION=baseline
# to record a pre-change reference into the trajectory file.
BENCHTIME ?= 1x
BENCH_SECTION ?= current
BENCH_OUT ?= BENCH.json

.PHONY: all check fmt vet build test examples agent-repeat perfbench-check race race-hot soak fuzz-smoke diff-sweep wire-diff budget-audit conformance fanout budget-bench repro round-bytes bench loc staticcheck profile obs-demo clean

all: check

# check is the tier-1 gate: everything CI runs, in order. race-hot runs
# first so races on the mechanism/platform hot paths (pooled scratch,
# concurrent sessions) fail fast before the full-tree race pass.
# diff-sweep re-runs the offline engine differential battery verbosely
# and fails if the sweep was filtered out or skipped, so the fast
# offline engine can never silently drift from the Hungarian+VCG oracle.
# agent-repeat reruns the CLI agent's end-of-service tests many times,
# so a shutdown race cannot hide behind a lucky single run.
# examples runs every example program, which the build only compiles.
# perfbench-check vets and tests the benchmark module, which the root
# build skips. fmt fails if any Go file, perfbench/ included, is not
# gofmt-clean. repro pins the reproduction report and EXPERIMENTS.md to
# a golden file. round-bytes pins a streaming round's bytes per bid.
check: fmt vet build test examples agent-repeat perfbench-check race-hot race diff-sweep wire-diff budget-audit conformance fanout repro round-bytes

fmt:
	@out=$$(gofmt -l .) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need gofmt -w:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

agent-repeat:
	$(GO) test -count=200 ./cmd/crowd-agent

# examples runs each program under examples/ (its stdout discarded) and
# fails on the first that exits non-zero.
EXAMPLES := $(sort $(patsubst %/main.go,%,$(wildcard examples/*/main.go)))
examples:
	@for e in $(EXAMPLES); do \
		echo "go run ./$$e"; \
		$(GO) run ./$$e >/dev/null || { echo "examples: $$e failed"; exit 1; }; \
	done

# perfbench-check builds, vets and tests perfbench/, the repository
# benchmark. It is its own Go module, so `go build ./...` at the root
# never compiles it, and an interface change in the packages it uses
# would otherwise break the benchmark unnoticed.
perfbench-check:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

# gate runs the tests named in $(2), and only those, in package $(1)
# with the extra go test flags $(3), verbosely. It fails unless every
# named test printed its own top-level PASS line (so a -run filter, a
# skip or a renamed test cannot silently drop one) and no FAIL line
# appeared (with -count=N, one PASS line alone cannot show all N runs
# passed).
empty :=
space := $(empty) $(empty)
define gate
	$(GO) test $(3) -run '^($(subst $(space),|,$(strip $(2))))$$' -v $(1) | tee /tmp/dynacrowd-$@.out
	for t in $(2); do grep -q -- "--- PASS: $$t (" /tmp/dynacrowd-$@.out || { echo "$@: $$t did not pass"; exit 1; }; done
	! grep -qE -- '--- FAIL|^FAIL' /tmp/dynacrowd-$@.out
endef

# race-hot focuses the race detector on the packages that share scratch
# buffers across goroutines: the pooled mechanism scratch, the platform
# server, and the lock-free observability primitives.
race-hot:
	$(GO) test -race -count=1 ./internal/core/... ./internal/platform/... ./internal/obs/... ./internal/matching/... ./internal/budget/...

# soak exercises the unreliable-winner pipeline under the race detector:
# the chaos soak (realization faults composed with transport faults,
# conservation invariants) and a short fuzz of completion-event
# orderings with snapshot/restore round trips. See docs/PLATFORM.md
# "Failure model".
soak:
	$(GO) test -race -count=1 -run TestSoakUnreliableWinnersUnderChaos -v ./internal/platform/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzCompletionOrder -fuzztime 10s ./internal/core/

# fuzz-smoke gives the offline-VCG differential fuzzers a short,
# deterministic budget: FuzzOfflineVCG cross-checks the fast interval
# engine against the Hungarian+VCG oracle (welfare, payments, IR),
# FuzzIntervalSolver pins the augmenting-path matcher to the dense
# Hungarian optimum on arbitrary interval instances, FuzzCriticalPayments
# pins the online cascade payments to the literal Algorithm 2 re-run,
# FuzzCompletionOrder drives arbitrary complete/default orderings
# through the online auction's lifecycle and snapshot/restore, the
# protocol fuzzers feed arbitrary bytes to the binary frame decoder
# (malformed input must error, never panic or hang) and to one pooled
# Reader in both framings (its reused JSON decoder must read every
# message, and every error, as a fresh decoder would), and FuzzRestore
# feeds arbitrary bytes, seeded with the golden checkpoints, to both
# auctions' restore (it must error or round-trip, never panic).
# -fuzzminimizetime 100x bounds how long each new-coverage input is
# minimized: the default allows 60 s per input, so a 10 s smoke run could
# spend its whole budget minimizing (FuzzRestore then ran 9 executions)
# instead of fuzzing.
fuzz-smoke:
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzOfflineVCG -fuzzminimizetime 100x -fuzztime 10s ./internal/core/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzCriticalPayments -fuzzminimizetime 100x -fuzztime 10s ./internal/core/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzCompletionOrder -fuzzminimizetime 100x -fuzztime 10s ./internal/core/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzIntervalSolver -fuzzminimizetime 100x -fuzztime 5s ./internal/matching/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzBinaryFrame -fuzzminimizetime 100x -fuzztime 10s ./internal/protocol/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzReceive -fuzzminimizetime 100x -fuzztime 10s ./internal/protocol/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzBudgetSnapshot -fuzzminimizetime 100x -fuzztime 10s ./internal/budget/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzRestore -fuzzminimizetime 100x -fuzztime 10s ./internal/core/auctiontest/

# wire-diff proves the binary framing is transport dressing only: the
# same scripted multi-round auction (completions, defaults, clawbacks)
# replayed over all-JSON, all-binary, and mixed swarms must produce a
# bit-identical outcome.
wire-diff:
	$(call gate,./internal/platform/,TestWireDifferentialSwarm,-count=1)

# budget-audit is the truthfulness gate for the budgeted mechanism
# family: the Fig-5-style counterexample (naive budget truncation is
# manipulable; both budget engines are not), then the exhaustive
# deviation audit — every phone, every misreport, five seeded rounds per
# engine and budget level — asserting zero positive-gain deviations,
# individual rationality, and sum-of-payments <= B on every audited
# instance. Last, the pricing differential: counterfactual probes,
# each started from a rewind of the observed round, against fresh
# replays from slot 1 (identical answers, bit-identical payments), also
# with winners priced out of arrival order so the rewind goes back in
# time; every payment against a bisected critical value; pricing
# leaving the observed state its replays read untouched; and the golden
# allocation and payment bits of 400 Table I rounds. Every probe starts
# from core.Ledger.Rewind, so the core test that rewinds a ledger to
# each slot and finishes the round as recorded is gated here too.
budget-audit:
	$(call gate,./internal/budget/,TestNaiveTruncatedNotTruthful TestBudgetEnginesPassCounterexample \
		TestBudgetAuditCampaign TestResumedProbesMatchReplay TestProbesOutOfArrivalOrder \
		TestPaymentIsBisectedCriticalValue TestPricingLeavesObservedState TestGoldenPayments,-count=1)
	$(call gate,./internal/core/,TestLedgerMirrorsOnlineAuction,-count=1)

# budget-bench records the budgeted engines' per-round throughput
# against the unbudgeted baseline (counterfactual critical-value
# pricing is the deliberate cost; see docs/BUDGET.md), as the median and
# extremes of five runs, plus the welfare-per-budget sweep across the
# workload zoo.
budget-bench:
	$(GO) test -bench BenchmarkBudgetedSlot -benchtime $(BENCHTIME) -count 5 -run '^$$' ./internal/budget/ \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -section budget-slot
	$(GO) test -bench BenchmarkBudgetSweep -benchtime 1x -run '^$$' . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -section budget-sweep

# diff-sweep proves the oracle-differential batteries actually ran, so
# the equivalence evidence cannot silently drop out of the gate. The
# offline sweep pins the interval engine to Hungarian+VCG, and the literal-VCG
# check pins its payments to ω*(B) + b_i − ω*(B₋ᵢ) re-solved from
# scratch for every winner; the cascade
# batteries pin the online critical-value payments to the literal
# Algorithm 2 re-run (short and dense within-slot chains) and to the
# literal within-slot walk after defaults and snapshot restores.
diff-sweep:
	$(call gate,./internal/core/,TestOfflineDifferentialSweep TestOfflineLiteralVCG \
		TestCascadeMatchesOracleSweep TestCascadeMatchesOracleDenseSlots TestCascadeMatchesLiteralWalkWithDefaults,-count=1)

# conformance proves the core.Auction conformance suite and the golden
# checkpoint test ran: every auction kind (online, online with its
# completion lifecycle, budgeted under each engine) steps, refuses the
# same malformed slots without changing state, checkpoints
# at every slot boundary, reports each phone's standing from its
# settlement record, rejects each malformed checkpoint, and restores
# the version-1 checkpoints under testdata/ byte-identically.
conformance:
	$(call gate,./internal/core/auctiontest/,TestBidAndInstance TestStepRejects TestCheckpointEverySlot TestStanding \
		TestRestoreRejectsMalformed TestRestoreAsOtherKind TestGoldenCheckpoints,-count=1)

# fanout proves the slot-frame rule tests ran, ten times each under the
# race detector: a phone admitted this round hears slot frames while its
# session is live, so a tick sends nothing to phones that hung up, a
# resume re-attaches, a superseded session's teardown keeps the resumed
# phone, and a round change leaves no stale session index. The tick
# tests pin that a tick allocates and sends the same after 10,000 phones
# detached, and at 1,000 and 10,000 listening phones; the steady-state
# test pins an allocation-free broadcast.
fanout:
	$(call gate,./internal/platform/,TestHungUpPhoneGetsNoSlotFrames TestResumedPhoneGetsSlotFramesAgain \
		TestSupersededSessionKeepsResumedPhone TestNextRoundClearsSessionIndex TestTickFlatAfterDetach \
		TestTickAllocationFlatInPopulation TestSteadyStateFanoutAllocFree,-race -count=10)

# repro proves the reproduction is pinned: crowdsim's full default
# report (Figs. 6-11 with their shape checks, then the baselines,
# robustness, reserve, anytime and quality extensions) must equal
# cmd/crowdsim/testdata/report.golden byte for byte, EXPERIMENTS.md's
# Fig. 6-11 tables must show its values, and a 2-seed report must render
# every section with no per-seed guarantee violated.
repro:
	$(call gate,./cmd/crowdsim/,TestReportGolden TestReportQuick,-count=1)

# round-bytes pins the bytes one fresh engine-heavy-scale streaming
# round (BenchmarkStreamingRound's 100,317 bids) allocates per bid:
# OnlineAuction keeps three per-phone slices while the lifecycle is off,
# and one more per-phone slice grown by doubling fails the bound.
round-bytes:
	$(call gate,.,TestStreamingRoundBytesPerBid,-count=1)

# staticcheck runs honnef.co/go/tools if it is installed; the tier-1
# gate stays dependency-free, so a missing binary is a skip, not a
# failure.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# bench runs every benchmark five times and records the per-metric
# medians (ns/op plus the figure benchmarks' welfare/sigma metrics) as a
# section of the JSON trajectory file, printing speedups against the
# stored baseline.
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -count 5 -run='^$$' ./... \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -section $(BENCH_SECTION)

# loc prints the size of the Go code under version control outside
# perfbench/ (the benchmark module): non-test lines, then test lines.
# It counts files git tracks, so stage a new file before counting it.
loc:
	@git ls-files '*.go' ':!:perfbench/' | grep -v '_test\.go$$' | xargs cat | wc -l | xargs echo non-test
	@git ls-files '*.go' ':!:perfbench/' | grep '_test\.go$$' | xargs cat | wc -l | xargs echo test

# obs-demo runs a short live platform round with observability on and
# scrapes its Prometheus endpoint, demonstrating the introspection
# surface end to end (see docs/OBSERVABILITY.md).
OBS_ADDR ?= 127.0.0.1:7393
obs-demo:
	$(GO) build -o /tmp/crowd-platform-demo ./cmd/crowd-platform
	/tmp/crowd-platform-demo -addr 127.0.0.1:0 -slots 10 -slot-every 100ms \
		-task-rate 2 -obs-addr $(OBS_ADDR) -trace /tmp/crowd-platform-demo.trace.jsonl & \
	pid=$$!; \
	sleep 0.6; \
	for i in 1 2 3 4 5; do \
		curl -fsS http://$(OBS_ADDR)/metrics >/tmp/crowd-platform-demo.metrics && break; \
		sleep 0.3; \
	done; \
	grep -E '^dynacrowd_(platform_(slot|welfare_total|paid_total)|core_slot_alloc_seconds_count|trace_events_total)' \
		/tmp/crowd-platform-demo.metrics; \
	curl -fsS "http://$(OBS_ADDR)/debug/rounds?n=5" | head -c 600; echo; \
	wait $$pid
	@echo "---- trace tail ----"
	@tail -n 3 /tmp/crowd-platform-demo.trace.jsonl

# profile captures CPU and heap profiles of a representative sweep;
# inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/crowdsim -figure fig6 -quick -cpuprofile cpu.pprof -memprofile mem.pprof >/dev/null
	@echo "wrote cpu.pprof and mem.pprof"

clean:
	$(GO) clean ./...
