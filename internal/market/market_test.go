package market

import (
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/sim"
	"dynacrowd/internal/workload"
)

func smallScenario() workload.Scenario {
	s := workload.DefaultScenario()
	s.Slots = 12
	s.PhoneRate = 3
	s.TaskRate = 2
	return s
}

func TestConfigValidate(t *testing.T) {
	good := Config{Rounds: 3, Scenario: smallScenario(), ReturnProbability: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Rounds: 0, Scenario: smallScenario()},
		{Rounds: 2, Scenario: smallScenario(), ReturnProbability: -0.1},
		{Rounds: 2, Scenario: smallScenario(), ReturnProbability: 1.5},
		{Rounds: 2, Scenario: workload.Scenario{}},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := Run(c); err == nil {
			t.Errorf("case %d: Run accepted invalid config", i)
		}
	}
}

func TestRunProducesAllRounds(t *testing.T) {
	res, err := Run(Config{Rounds: 8, Scenario: smallScenario(), Seed: 1, ReturnProbability: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 8 {
		t.Fatalf("got %d rounds", len(res.Rounds))
	}
	for i, rec := range res.Rounds {
		if rec.Round != i+1 {
			t.Fatalf("round %d numbered %d", i, rec.Round)
		}
		if rec.Metrics.Mechanism != "online-greedy" {
			t.Fatalf("default mechanism = %q", rec.Metrics.Mechanism)
		}
		if rec.Metrics.Phones == 0 {
			t.Fatalf("round %d saw no phones", rec.Round)
		}
	}
	if res.Rounds[0].Returning != 0 {
		t.Fatal("first round cannot have returning phones")
	}
}

func TestReturningPhonesFlow(t *testing.T) {
	// With ReturnProbability 1 every loser re-enters; later rounds must
	// report carried-over phones (the workload always produces losers at
	// these rates: ~36 phones for ~24 tasks).
	res, err := Run(Config{Rounds: 5, Scenario: smallScenario(), Seed: 2, ReturnProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rec := range res.Rounds[1:] {
		total += rec.Returning
	}
	if total == 0 {
		t.Fatal("no phones ever returned despite probability 1")
	}
	// And with probability 0, nobody ever returns.
	res0, err := Run(Config{Rounds: 5, Scenario: smallScenario(), Seed: 2, ReturnProbability: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res0.Rounds {
		if rec.Returning != 0 {
			t.Fatal("phones returned despite probability 0")
		}
	}
}

func TestReturningPhonesIncreasePopulation(t *testing.T) {
	with, err := Run(Config{Rounds: 6, Scenario: smallScenario(), Seed: 3, ReturnProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range with.Rounds[1:] {
		if rec.Returning > 0 && rec.Metrics.Phones <= rec.Returning {
			t.Fatalf("round %d: %d phones but %d returning", rec.Round, rec.Metrics.Phones, rec.Returning)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Rounds: 4, Scenario: smallScenario(), Seed: 7, ReturnProbability: 0.7}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rounds {
		if a.Rounds[i].Metrics.Welfare != b.Rounds[i].Metrics.Welfare {
			t.Fatal("same seed diverged")
		}
	}
}

func TestAggregates(t *testing.T) {
	empty := &Result{}
	if empty.MeanWelfare() != 0 || empty.MeanOverpayment() != 0 || empty.OverpaymentDrift() != 0 {
		t.Fatal("empty result aggregates must be zero")
	}

	res, err := Run(Config{Rounds: 10, Scenario: smallScenario(), Seed: 4, ReturnProbability: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanWelfare() <= 0 {
		t.Fatalf("mean welfare %g", res.MeanWelfare())
	}
	if res.MeanOverpayment() <= 0 {
		t.Fatalf("mean overpayment %g", res.MeanOverpayment())
	}
}

// TestLongRunStability reproduces the paper's Section VI claim: the
// overpayment ratio stays stable over many rounds (no drift between the
// first and second half of a 30-round market).
func TestLongRunStability(t *testing.T) {
	scn := workload.DefaultScenario()
	scn.Slots = 25 // half scale keeps the test fast
	res, err := Run(Config{Rounds: 30, Scenario: scn, Seed: 5, ReturnProbability: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable() {
		t.Fatalf("overpayment drifted %.3f against mean %.3f (> %g of it)",
			res.OverpaymentDrift(), res.MeanOverpayment(), MaxStableDrift)
	}
}

// TestStableBoundary: a run is stable up to a drift of exactly
// MaxStableDrift of its mean, and not beyond; a run whose ratios are all
// 0 is stable.
func TestStableBoundary(t *testing.T) {
	run := func(ratios ...float64) *Result {
		r := &Result{}
		for _, o := range ratios {
			r.Rounds = append(r.Rounds, RoundRecord{Metrics: sim.RoundMetrics{OverpaymentRatio: o}})
		}
		return r
	}
	cases := []struct {
		res    *Result
		rel    float64
		stable bool
	}{
		{run(7, 7, 9, 9), 0.25, true}, // drift 2, mean 8
		{run(9, 9, 7, 7), 0.25, true},
		{run(7, 7, 9.01, 9.01), 2.01 / 8.005, false},
		{run(1, 1, 1, 1), 0, true},
		{run(0, 0, 0, 0), 0, true},
		{run(), 0, true},
	}
	for i, tc := range cases {
		if got := tc.res.RelativeDrift(); got != tc.rel {
			t.Errorf("case %d: relative drift %g, want %g", i, got, tc.rel)
		}
		if got := tc.res.Stable(); got != tc.stable {
			t.Errorf("case %d: stable = %v, want %v", i, got, tc.stable)
		}
	}
}

func TestOfflineMechanismInMarket(t *testing.T) {
	res, err := Run(Config{
		Rounds:    3,
		Scenario:  smallScenario(),
		Seed:      6,
		Mechanism: &core.OfflineMechanism{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Rounds {
		if rec.Metrics.Mechanism != "offline-vcg" {
			t.Fatalf("mechanism = %q", rec.Metrics.Mechanism)
		}
	}
}

// TestMergedInstancesValid: the carry-over merge preserves instance
// invariants (dense IDs, arrival-sorted bids).
func TestMergedInstancesValid(t *testing.T) {
	scn := smallScenario()
	rng := workload.NewRNG(9)
	in, err := scn.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	merged := withReturningPhones(in, []float64{3, 17, 9}, rng, scn)
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged instance invalid: %v", err)
	}
	if merged.NumPhones() != in.NumPhones()+3 {
		t.Fatalf("merged %d phones, want %d", merged.NumPhones(), in.NumPhones()+3)
	}
	for i := 1; i < len(merged.Bids); i++ {
		if merged.Bids[i].Arrival < merged.Bids[i-1].Arrival {
			t.Fatal("merged bids out of arrival order")
		}
	}
	// The original instance must be untouched.
	if err := in.Validate(); err != nil {
		t.Fatal("original instance corrupted")
	}
}
