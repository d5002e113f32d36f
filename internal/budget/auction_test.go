package budget

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/workload"
)

func TestValidateBudget(t *testing.T) {
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, -0.0} {
		if err := ValidateBudget(b); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("ValidateBudget(%g) = %v, want ErrInvalidBudget", b, err)
		}
		if _, err := New(10, 30, false, b, nil); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("New with budget %g = %v, want ErrInvalidBudget", b, err)
		}
		mech := &Mechanism{Budget: b}
		if _, err := mech.Run(counterexample()); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("Mechanism.Run with budget %g = %v, want ErrInvalidBudget", b, err)
		}
		naive := &NaiveTruncated{Budget: b}
		if _, err := naive.Run(counterexample()); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("NaiveTruncated.Run with budget %g = %v, want ErrInvalidBudget", b, err)
		}
	}
	for _, b := range []float64{1e-9, 1, 1e12} {
		if err := ValidateBudget(b); err != nil {
			t.Errorf("ValidateBudget(%g) = %v, want nil", b, err)
		}
	}
}

func TestEngineByName(t *testing.T) {
	for name, want := range map[string]string{"": "stage", "stage": "stage", "frugal": "frugal"} {
		eng, err := EngineByName(name)
		if err != nil || eng.Name() != want {
			t.Errorf("EngineByName(%q) = %v, %v; want %s", name, eng, err, want)
		}
	}
	if _, err := EngineByName("hungarian"); err == nil {
		t.Error("EngineByName accepted an unknown engine")
	}
}

func TestStageLayout(t *testing.T) {
	// m=50 (Table I): K=7, stage ends 1,2,4,7,13,25,50, allowances
	// B/64 .. B, every slot covered exactly once.
	if got := NumStages(50); got != 7 {
		t.Fatalf("NumStages(50) = %d, want 7", got)
	}
	wantEnds := []core.Slot{1, 2, 4, 7, 13, 25, 50}
	for k := 1; k <= 7; k++ {
		if got := stageEnd(50, k, 7); got != wantEnds[k-1] {
			t.Errorf("stageEnd(50,%d) = %d, want %d", k, got, wantEnds[k-1])
		}
	}
	if got := allowanceAt(64, 7, 7); got != 64 {
		t.Errorf("allowanceAt(64, K, K) = %g, want the full budget", got)
	}
	if got := allowanceAt(64, 1, 7); got != 1 {
		t.Errorf("allowanceAt(64, 1, 7) = %g, want 1", got)
	}
	// Degenerate single-slot round: one stage holding the whole budget.
	if got := NumStages(1); got != 1 {
		t.Errorf("NumStages(1) = %d, want 1", got)
	}
	if got := stageEnd(1, 1, 1); got != 1 {
		t.Errorf("stageEnd(1,1,1) = %d, want 1", got)
	}
}

func TestThresholdEngines(t *testing.T) {
	// Empty samples must be non-binding (ν): the allowance gate paces
	// spending until density information exists.
	for _, eng := range []Engine{StageSampling{}, Frugal{}} {
		if got := eng.Threshold(10, 30, nil); got != 30 {
			t.Errorf("%s: empty-sample threshold %g, want ν=30", eng.Name(), got)
		}
	}
	// Proportional share: sample {1,2,4,20}, allowance 12 → deepest
	// prefix with c_(i) ≤ 12/i is i=3 (4 ≤ 4), so post 4.
	if got := (StageSampling{}).Threshold(12, 30, []float64{1, 2, 4, 20}); got != 4 {
		t.Errorf("StageSampling share = %g, want 4", got)
	}
	// The posted share never exceeds ν.
	if got := (StageSampling{}).Threshold(1000, 30, []float64{1}); got != 30 {
		t.Errorf("StageSampling cap = %g, want ν=30", got)
	}
	// Frugal: 0.9-quantile of ten costs is the 9th order statistic.
	sample := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := (Frugal{}).Threshold(100, 30, sample); got != 9 {
		t.Errorf("Frugal quantile = %g, want 9", got)
	}
	if got := (Frugal{Coverage: 0.5}).Threshold(100, 30, sample); got != 5 {
		t.Errorf("Frugal median = %g, want 5", got)
	}
	// Frugal is allowance-capped too.
	if got := (Frugal{}).Threshold(4, 30, sample); got != 4 {
		t.Errorf("Frugal allowance cap = %g, want 4", got)
	}

	// Every threshold is ν, a sample cost, or one of the engine's
	// breakpoints for that allowance and sample size: the pricing grid
	// relies on it.
	rng := workload.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		sample := make([]float64, rng.Intn(12))
		for k := range sample {
			sample[k] = rng.Uniform(0, 40)
		}
		sort.Float64s(sample)
		allowance := rng.Uniform(1, 100)
		for _, eng := range []Engine{StageSampling{}, Frugal{}} {
			thr := eng.Threshold(allowance, 30, sample)
			listed := append(eng.Breakpoints(nil, allowance, len(sample)), append([]float64{30}, sample...)...)
			if !slices.Contains(listed, thr) {
				t.Fatalf("%s: threshold %v on %v (allowance %v) is not a listed breakpoint", eng.Name(), thr, sample, allowance)
			}
		}
	}
}

// TestCompletionsUnsupported pins that a budgeted auction has no
// completion lifecycle at all: the platform derives its
// Budget+CompletionDeadline rejection from that absence.
func TestCompletionsUnsupported(t *testing.T) {
	a, err := New(5, 30, false, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	var auction core.Auction = a
	if _, ok := auction.(*core.OnlineAuction); ok {
		t.Fatal("a budgeted auction is a *core.OnlineAuction")
	}
	if _, ok := auction.(interface{ Complete(core.PhoneID) error }); ok {
		t.Error("budget.Auction has a Complete method")
	}
	if _, ok := auction.(interface {
		Default(core.PhoneID) (*core.DefaultResult, error)
	}); ok {
		t.Error("budget.Auction has a Default method")
	}
}

func TestStepErrors(t *testing.T) {
	// The pool stores departures as int32.
	if _, err := New(math.MaxInt32+1, 30, false, 50, nil); err == nil {
		t.Error("round longer than MaxInt32 slots accepted")
	}
	a, err := New(2, 30, false, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Step(nil, -1); err == nil {
		t.Error("negative task count accepted")
	}
	if _, err := a.Step([]core.StreamBid{{Departure: 99, Cost: 5}}, 0); err == nil {
		t.Error("departure beyond the round accepted")
	}
	if _, err := a.Step(nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Step(nil, 0); err != nil {
		t.Fatal(err)
	}
	if !a.Done() {
		t.Fatal("round should be complete")
	}
	if _, err := a.Step(nil, 0); err == nil {
		t.Error("Step after the round accepted")
	}
}

// TestBudgetInvariantsRandom runs both engines over random rounds at
// several budgets and asserts the structural invariants on every
// outcome: Σ payments ≤ B, payments within [cost, reserved cap],
// Reserved ≥ Σ payments, and welfare consistency.
func TestBudgetInvariantsRandom(t *testing.T) {
	scn := workload.DefaultScenario()
	scn.Slots = 20
	scn.PhoneRate = 3
	scn.TaskRate = 2
	for _, engName := range []string{"stage", "frugal"} {
		eng, err := EngineByName(engName)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []float64{5, 60, 1e6} {
			for seed := uint64(1); seed <= 8; seed++ {
				in, err := scn.Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				a, err := New(in.Slots, in.Value, in.AllocateAtLoss, budget, eng)
				if err != nil {
					t.Fatal(err)
				}
				out, err := streamInstance(a, in)
				if err != nil {
					t.Fatal(err)
				}
				if got := out.TotalPayment(); got > budget+1e-9 {
					t.Fatalf("%s B=%g seed %d: paid %g > budget", engName, budget, seed, got)
				}
				if got := out.TotalPayment(); got > a.Reserved()+1e-9 {
					t.Fatalf("%s B=%g seed %d: paid %g > reserved %g", engName, budget, seed, got, a.Reserved())
				}
				if a.Reserved() > budget+1e-9 {
					t.Fatalf("%s B=%g seed %d: reserved %g > budget", engName, budget, seed, a.Reserved())
				}
				for _, i := range out.Allocation.Winners() {
					if out.Payments[i] < in.Bids[i].Cost-1e-9 {
						t.Fatalf("%s B=%g seed %d: phone %d paid %g below cost %g",
							engName, budget, seed, i, out.Payments[i], in.Bids[i].Cost)
					}
					if out.Payments[i] > in.Value+1e-9 {
						t.Fatalf("%s B=%g seed %d: phone %d paid %g above ν", engName, budget, seed, i, out.Payments[i])
					}
				}
				for i := range in.Bids {
					if out.Allocation.WonAt[i] == 0 && out.Payments[i] != 0 {
						t.Fatalf("%s B=%g seed %d: loser %d paid %g", engName, budget, seed, i, out.Payments[i])
					}
				}
			}
		}
	}
}

// TestBudgetGatesAndInstruments drives a directed round through both
// gates and checks the observability bundle and the stage trace events.
func TestBudgetGatesAndInstruments(t *testing.T) {
	// m=4 → K=3, stage ends 1,2,4. B=8 → allowances 2,4,8.
	a, err := New(4, 30, false, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	a.SetInstruments(NewMetrics(reg))
	tr := obs.NewTracer(64)
	a.SetTracer(tr)

	// Slot 1 (stage 1, allowance 2, empty sample → threshold ν=30):
	// reserving ν breaches the allowance, so the task goes unserved and
	// the cheap phone stays pooled. The cost-2 phone departs immediately,
	// contributing only its sample point.
	if _, err := a.Step([]core.StreamBid{{Departure: 4, Cost: 1}, {Departure: 1, Cost: 2}}, 1); err != nil {
		t.Fatal(err)
	}
	if got := a.Reserved(); got != 0 {
		t.Fatalf("allowance gate leaked a reserve: %g", got)
	}
	// Slot 2 (stage 2, allowance 4, sample {1,2}): the cost-1 phone wins
	// with its exclude-self cap min(30, 4/1) = 4; the arriving cost-9
	// phone exceeds its full-sample threshold min(30, 4/2) = 2 and is
	// discarded.
	if _, err := a.Step([]core.StreamBid{{Departure: 4, Cost: 9}}, 2); err != nil {
		t.Fatal(err)
	}
	if got := a.Reserved(); got != 4 {
		t.Fatalf("reserved %g after the stage-2 win, want 4", got)
	}
	if _, err := a.Step(nil, 0); err != nil {
		t.Fatal(err)
	}
	res, err := a.Step(nil, 0) // slot 4: both phones depart
	if err != nil {
		t.Fatal(err)
	}

	m := a.inst
	if got := m.Wins.Value(); got != 1 {
		t.Errorf("wins counter %d, want 1", got)
	}
	if got := m.AllowanceRejects.Value(); got != 1 {
		t.Errorf("allowance rejects %d, want 1", got)
	}
	if got := m.ThresholdRejects.Value(); got < 1 {
		t.Errorf("threshold rejects %d, want ≥ 1", got)
	}
	if got := m.Remaining.Value(); got != 4 {
		t.Errorf("remaining gauge %g, want 4", got)
	}
	if got := m.Stage.Value(); got < 2 {
		t.Errorf("stage gauge %d, want ≥ 2", got)
	}

	var stageEvents int
	for _, ev := range tr.Recent(64) {
		if ev.Type == obs.EventBudgetStage {
			stageEvents++
		}
	}
	if stageEvents != 3 {
		t.Errorf("budget_stage events %d, want one per stage (3)", stageEvents)
	}

	// The winner departs in slot 4 and is paid at most its cap.
	if len(res.Payments) != 1 {
		t.Fatalf("payments at departure: %+v", res.Payments)
	}
	if got := res.Payments[0].Amount; got > 4+1e-9 || got < 1 {
		t.Errorf("settled payment %g outside [cost, cap] = [1, 4]", got)
	}
	out := a.Outcome()
	if out.Payments[0] != res.Payments[0].Amount {
		t.Errorf("outcome payment %g disagrees with the settled notice %g", out.Payments[0], res.Payments[0].Amount)
	}
}

// TestBudgetExhausted pins the typed exhaustion signal the platform
// surfaces as a bid rejection.
func TestBudgetExhausted(t *testing.T) {
	// One slot, one stage, allowance = B. A single cheap phone wins with
	// the empty-sample cap min(ν, ·) = ν = B, committing the full budget.
	a, err := New(1, 30, false, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.BudgetExhausted() {
		t.Fatal("fresh auction reports exhaustion")
	}
	if _, err := a.Step([]core.StreamBid{{Departure: 1, Cost: 2}}, 1); err != nil {
		t.Fatal(err)
	}
	if !a.BudgetExhausted() {
		t.Fatalf("full reserve left Remaining %g but not exhausted", a.Remaining())
	}
}

// TestMechanismNames pins the mechanism naming used by sweeps and docs.
func TestMechanismNames(t *testing.T) {
	if got := (&Mechanism{Budget: 40}).Name(); got != "budget-stage-B40" {
		t.Errorf("default name %q", got)
	}
	if got := (&Mechanism{Budget: 2.5, Engine: Frugal{}}).Name(); got != "budget-frugal-B2.5" {
		t.Errorf("frugal name %q", got)
	}
	if got := (&NaiveTruncated{Budget: 40}).Name(); got != "naive-truncated-B40" {
		t.Errorf("naive name %q", got)
	}
}

// TestPaidAtStageShareBoundary pins the individual-rationality fix: on
// this Table I instance (the 80th of workload.NewRNG(16)'s stream)
// phone 15, window [2,8] and bid 17.847, wins exactly while its bid
// clears the stage-3 share C_3/7 = 125/7 = 17.857. That boundary is
// neither a cost nor ν, so before the engine's breakpoints joined the
// candidate grid the phone was paid the grid point below its own bid,
// 16.546.
func TestPaidAtStageShareBoundary(t *testing.T) {
	rng := workload.NewRNG(16)
	for k := 0; k < 79; k++ {
		rng.Uint64()
	}
	in, err := workload.DefaultScenario().Generate(rng.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	bid := in.Bids[15]
	if bid.Arrival != 2 || bid.Departure != 8 || math.Abs(bid.Cost-17.847) > 1e-3 {
		t.Fatalf("instance drifted: phone 15 is %+v", bid)
	}
	a, err := New(in.Slots, in.Value, in.AllocateAtLoss, 2000, StageSampling{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := streamInstance(a, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Allocation.WonAt[15] == 0 {
		t.Fatal("phone 15 lost")
	}
	if got, want := out.Payments[15], allowanceAt(2000, 3, NumStages(in.Slots))/7; got != want || got < bid.Cost {
		t.Errorf("phone 15 (bid %v) paid %v, want C_3/7 = %v", bid.Cost, got, want)
	}
}

// TestRoundAllocationBounded pins that pricing reuses its replay
// storage: a whole Table I round, every settled winner priced by
// counterfactual replays, allocates under 1 MiB on either engine at a
// binding and a loose budget. Building a fresh auction per probe (some
// 600 per round) costs tens of MiB.
func TestRoundAllocationBounded(t *testing.T) {
	const bound = 1 << 20
	in, err := workload.DefaultScenario().Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	for _, eng := range []Engine{StageSampling{}, Frugal{}} {
		for _, budget := range []float64{200, 2000} {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			a, err := New(in.Slots, in.Value, in.AllocateAtLoss, budget, eng)
			if err != nil {
				t.Fatal(err)
			}
			out, err := streamInstance(a, in)
			runtime.ReadMemStats(&ms)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Allocation.Winners()) == 0 {
				t.Fatalf("%s B=%g: no winners to price", eng.Name(), budget)
			}
			if got := ms.TotalAlloc - before; got > bound {
				t.Errorf("%s B=%g: one round allocated %d bytes, want ≤ %d", eng.Name(), budget, got, bound)
			}
		}
	}
}

// TestNonMonotoneWinnerPaidAtLeastBid pins individual rationality where
// winning is not monotone in the report. In this Table I round (the
// 4162nd of workload.NewRNG(4)'s stream) phone 1's cost sits in other
// phones' stage samples, so its report moves their shares: it wins at
// 12, loses at 14, and wins again at its own bid 16.714 up to 16.967.
// No payment makes it truthful there, but searching up from its bid
// pays the end of the winning run it is in, not the first boundary.
func TestNonMonotoneWinnerPaidAtLeastBid(t *testing.T) {
	rng := workload.NewRNG(4)
	for k := 0; k < 4161; k++ {
		rng.Uint64()
	}
	in, err := workload.DefaultScenario().Generate(rng.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(in.Slots, in.Value, in.AllocateAtLoss, 2000, StageSampling{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := streamInstance(a, in)
	if err != nil {
		t.Fatal(err)
	}
	bid := in.Bids[1]
	if out.Allocation.WonAt[1] == 0 || math.Abs(bid.Cost-16.714) > 1e-3 {
		t.Fatalf("instance drifted: phone 1 is %+v, won at %d", bid, out.Allocation.WonAt[1])
	}
	until := a.pricedThrough(1)
	if !replayWins(a, 1, 12, until) || replayWins(a, 1, 14, until) {
		t.Fatal("winning became monotone here; the test no longer covers a non-monotone round")
	}
	if got := out.Payments[1]; got < bid.Cost || math.Abs(got-16.967) > 1e-3 {
		t.Errorf("phone 1 (bid %v) paid %v, want the end of its winning run, 16.967", bid.Cost, got)
	}
}
