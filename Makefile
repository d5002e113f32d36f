GO ?= go

# bench knobs: BENCHTIME=2s for stable numbers, BENCH_SECTION=baseline
# to record a pre-change reference into the trajectory file.
BENCHTIME ?= 1x
BENCH_SECTION ?= current
BENCH_OUT ?= BENCH_PR10.json

.PHONY: all check vet build test agent-repeat perfbench-check race race-hot soak fuzz-smoke diff-sweep wire-diff budget-audit conformance fanout budget-bench loadtest-smoke loadtest bench bench-merge staticcheck profile obs-demo clean

all: check

# check is the tier-1 gate: everything CI runs, in order. race-hot runs
# first so races on the mechanism/platform hot paths (pooled scratch,
# concurrent sessions) fail fast before the full-tree race pass.
# diff-sweep re-runs the offline engine differential battery verbosely
# and fails if the sweep was filtered out or skipped, so the fast
# offline engine can never silently drift from the Hungarian+VCG oracle.
# agent-repeat reruns the CLI agent's end-of-service tests many times,
# so a shutdown race cannot hide behind a lucky single run.
# perfbench-check vets and tests the benchmark module, which the root
# build skips.
check: vet build test agent-repeat perfbench-check race-hot race diff-sweep wire-diff budget-audit conformance fanout

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

agent-repeat:
	$(GO) test -count=200 ./cmd/crowd-agent

# perfbench-check builds, vets and tests perfbench/, the repository
# benchmark. It is its own Go module, so `go build ./...` at the root
# never compiles it, and an interface change in the packages it uses
# would otherwise break the benchmark unnoticed.
perfbench-check:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

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
# protocol fuzzer feeds arbitrary bytes to the binary frame decoder
# (malformed input must error, never panic or hang), and FuzzRestore
# feeds arbitrary bytes, seeded with the golden checkpoints, to both
# auctions' restore (it must error or round-trip, never panic).
fuzz-smoke:
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzOfflineVCG -fuzztime 10s ./internal/core/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzCriticalPayments -fuzztime 10s ./internal/core/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzCompletionOrder -fuzztime 10s ./internal/core/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzIntervalSolver -fuzztime 5s ./internal/matching/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzBinaryFrame -fuzztime 10s ./internal/protocol/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzBudgetSnapshot -fuzztime 10s ./internal/budget/
	$(GO) test -race -count=1 -run '^$$' -fuzz FuzzRestore -fuzztime 10s ./internal/core/auctiontest/

# wire-diff proves the binary framing is transport dressing only: the
# same scripted multi-round auction (completions, defaults, clawbacks)
# replayed over all-JSON, all-binary, and mixed swarms must produce a
# bit-identical outcome. The grep fails the target if the differential
# was filtered out or skipped.
wire-diff:
	$(GO) test -count=1 -run TestWireDifferentialSwarm -v ./internal/platform/ \
		| tee /tmp/dynacrowd-wire-diff.out
	grep -q -- '--- PASS: TestWireDifferentialSwarm' /tmp/dynacrowd-wire-diff.out

# budget-audit is the truthfulness gate for the budgeted mechanism
# family: the Fig-5-style counterexample (naive budget truncation is
# manipulable; both budget engines are not), then the exhaustive
# deviation audit — every phone, every misreport, five seeded rounds per
# engine and budget level — asserting zero positive-gain deviations,
# individual rationality, and sum-of-payments <= B on every audited
# instance. Last, the pricing differential: resumed counterfactual
# probes against fresh replays from slot 1 (identical answers,
# bit-identical payments), and every payment against a bisected
# critical value. The grep guards fail the target if any battery is
# filtered out or skipped.
budget-audit:
	$(GO) test -count=1 -run 'TestNaiveTruncatedNotTruthful|TestBudgetEnginesPassCounterexample' -v ./internal/budget/ \
		| tee /tmp/dynacrowd-budget-counterexample.out
	grep -q -- '--- PASS: TestNaiveTruncatedNotTruthful' /tmp/dynacrowd-budget-counterexample.out
	grep -q -- '--- PASS: TestBudgetEnginesPassCounterexample' /tmp/dynacrowd-budget-counterexample.out
	$(GO) test -count=1 -run TestBudgetAuditCampaign -v ./internal/budget/ \
		| tee /tmp/dynacrowd-budget-audit.out
	grep -q -- '--- PASS: TestBudgetAuditCampaign' /tmp/dynacrowd-budget-audit.out
	$(GO) test -count=1 -run 'TestResumedProbesMatchReplay|TestPaymentIsBisectedCriticalValue' -v ./internal/budget/ \
		| tee /tmp/dynacrowd-budget-pricing.out
	grep -q -- '--- PASS: TestResumedProbesMatchReplay' /tmp/dynacrowd-budget-pricing.out
	grep -q -- '--- PASS: TestPaymentIsBisectedCriticalValue' /tmp/dynacrowd-budget-pricing.out

# budget-bench records the budgeted engines' per-round throughput
# against the unbudgeted baseline (counterfactual critical-value
# pricing is the deliberate cost; see docs/BUDGET.md) plus the
# welfare-per-budget sweep across the workload zoo.
budget-bench:
	$(GO) test -bench BenchmarkBudgetedSlot -benchtime $(BENCHTIME) -run '^$$' ./internal/budget/ \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -section budget-slot
	$(GO) test -bench BenchmarkBudgetSweep -benchtime 1x -run '^$$' . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -section budget-sweep

# loadtest-smoke is the fast gate for the load harness (docs/LOADTEST.md):
# a 5k-agent swarm over in-memory pipes in both wire formats, with a
# conservative sustained-throughput floor so a fan-out regression that
# halves delivery rate fails loudly even on a busy CI box.
loadtest-smoke:
	$(GO) run ./cmd/crowdsim -load -load-agents 5000 -load-ticks 30 -load-min-msgs 50000 >/dev/null

# loadtest is the full recorded run: the 100k-agent sustained swarm plus
# a hot-cache 2k-agent run (where throughput is codec-bound rather than
# scheduler-bound — that is where the binary framing's >=3x shows),
# both appended to the trajectory file.
loadtest:
	$(GO) run ./cmd/crowdsim -load -load-agents 2000 -load-ticks 50 \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -section load-2k
	$(GO) run ./cmd/crowdsim -load -load-agents 100000 -load-ticks 50 \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -section load-100k

# diff-sweep proves the oracle-differential batteries actually ran: the
# greps fail the target unless each battery's PASS line is in the
# verbose output, so a -run filter, a skip, or a renamed test cannot
# silently drop the equivalence evidence from the gate. The offline
# sweep pins the interval engine to Hungarian+VCG, and the literal-VCG
# check pins its payments to ω*(B) + b_i − ω*(B₋ᵢ) re-solved from
# scratch for every winner; the cascade
# batteries pin the online critical-value payments to the literal
# Algorithm 2 re-run (short and dense within-slot chains) and to the
# literal within-slot walk after defaults and snapshot restores.
diff-sweep:
	$(GO) test -count=1 -run 'TestOfflineDifferentialSweep|TestOfflineLiteralVCG' -v ./internal/core/ \
		| tee /tmp/dynacrowd-diff-sweep.out
	grep -q -- '--- PASS: TestOfflineDifferentialSweep' /tmp/dynacrowd-diff-sweep.out
	grep -q -- '--- PASS: TestOfflineLiteralVCG' /tmp/dynacrowd-diff-sweep.out
	$(GO) test -count=1 -run 'TestCascadeMatchesOracleSweep|TestCascadeMatchesOracleDenseSlots|TestCascadeMatchesLiteralWalkWithDefaults' -v ./internal/core/ \
		| tee /tmp/dynacrowd-cascade-sweep.out
	grep -q -- '--- PASS: TestCascadeMatchesOracleSweep' /tmp/dynacrowd-cascade-sweep.out
	grep -q -- '--- PASS: TestCascadeMatchesOracleDenseSlots' /tmp/dynacrowd-cascade-sweep.out
	grep -q -- '--- PASS: TestCascadeMatchesLiteralWalkWithDefaults' /tmp/dynacrowd-cascade-sweep.out

# conformance proves the core.Auction conformance suite and the golden
# checkpoint test ran: every auction kind (online, online with its
# completion lifecycle, budgeted under each engine) steps, checkpoints
# at every slot boundary, rejects each malformed checkpoint, and
# restores the version-1 checkpoints under testdata/ byte-identically.
# The greps fail the target if a test was filtered out or skipped.
conformance:
	$(GO) test -count=1 -run 'TestBidAndInstance|TestCheckpointEverySlot|TestRestoreRejectsMalformed|TestRestoreAsOtherKind|TestGoldenCheckpoints' -v ./internal/core/auctiontest/ \
		| tee /tmp/dynacrowd-conformance.out
	grep -q -- '--- PASS: TestBidAndInstance' /tmp/dynacrowd-conformance.out
	grep -q -- '--- PASS: TestCheckpointEverySlot' /tmp/dynacrowd-conformance.out
	grep -q -- '--- PASS: TestRestoreRejectsMalformed' /tmp/dynacrowd-conformance.out
	grep -q -- '--- PASS: TestRestoreAsOtherKind' /tmp/dynacrowd-conformance.out
	grep -q -- '--- PASS: TestGoldenCheckpoints' /tmp/dynacrowd-conformance.out

# fanout proves the slot-frame rule tests ran, ten times each under the
# race detector: a phone admitted this round hears slot frames while its
# session is live, so a tick sends nothing to phones that hung up, a
# resume re-attaches, a superseded session's teardown keeps the resumed
# phone, and a round change leaves no stale session index. The tick
# tests pin that a tick allocates and sends the same after 10,000 phones
# detached, and at 1,000 and 10,000 listening phones; the steady-state
# test pins an allocation-free broadcast. The PASS greps fail the target
# if a test was filtered out or skipped, and the FAIL grep if any of the
# ten repetitions failed.
fanout:
	$(GO) test -race -count=10 -run '^(TestHungUpPhoneGetsNoSlotFrames|TestResumedPhoneGetsSlotFramesAgain|TestSupersededSessionKeepsResumedPhone|TestNextRoundClearsSessionIndex|TestTickFlatAfterDetach|TestTickAllocationFlatInPopulation|TestSteadyStateFanoutAllocFree)$$' -v ./internal/platform/ \
		| tee /tmp/dynacrowd-fanout.out
	grep -q -- '--- PASS: TestHungUpPhoneGetsNoSlotFrames' /tmp/dynacrowd-fanout.out
	grep -q -- '--- PASS: TestResumedPhoneGetsSlotFramesAgain' /tmp/dynacrowd-fanout.out
	grep -q -- '--- PASS: TestSupersededSessionKeepsResumedPhone' /tmp/dynacrowd-fanout.out
	grep -q -- '--- PASS: TestNextRoundClearsSessionIndex' /tmp/dynacrowd-fanout.out
	grep -q -- '--- PASS: TestTickFlatAfterDetach' /tmp/dynacrowd-fanout.out
	grep -q -- '--- PASS: TestTickAllocationFlatInPopulation' /tmp/dynacrowd-fanout.out
	grep -q -- '--- PASS: TestSteadyStateFanoutAllocFree' /tmp/dynacrowd-fanout.out
	! grep -qE -- '--- FAIL|^FAIL' /tmp/dynacrowd-fanout.out

# staticcheck runs honnef.co/go/tools if it is installed; the tier-1
# gate stays dependency-free, so a missing binary is a skip, not a
# failure.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# bench runs every benchmark and records the results (ns/op plus the
# figure benchmarks' welfare/sigma metrics) as a section of the JSON
# trajectory file, printing speedups against the stored baseline.
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -run='^$$' ./... \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -section $(BENCH_SECTION)

# bench-merge combines every per-PR trajectory file into one report so
# the full performance history is diffable in a single place.
bench-merge:
	$(GO) run ./cmd/benchjson -merge $$(ls BENCH_PR*.json | paste -sd, -) -out BENCH_ALL.json

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
