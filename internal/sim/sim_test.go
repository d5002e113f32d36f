package sim

import (
	"math"
	"strings"
	"testing"

	"dynacrowd/internal/baseline"
	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// smallScenario keeps test rounds fast.
func smallScenario() workload.Scenario {
	s := workload.DefaultScenario()
	s.Slots = 15
	return s
}

func TestRunRoundPopulatesMetrics(t *testing.T) {
	m, err := RunRound(smallScenario(), 1, &core.OnlineMechanism{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mechanism != "online-greedy" || m.Seed != 1 {
		t.Fatalf("identity fields wrong: %+v", m)
	}
	if m.Phones == 0 || m.Tasks == 0 {
		t.Fatalf("degenerate round: %+v", m)
	}
	if m.Served > m.Tasks {
		t.Fatalf("served %d > tasks %d", m.Served, m.Tasks)
	}
	if m.TotalPayment < m.TotalWinnerCost-1e-9 {
		t.Fatalf("payment %g below winner cost %g (IR violated in aggregate)", m.TotalPayment, m.TotalWinnerCost)
	}
	if m.TotalWinnerCost > 0 {
		want := (m.TotalPayment - m.TotalWinnerCost) / m.TotalWinnerCost
		if math.Abs(m.OverpaymentRatio-want) > 1e-9 {
			t.Fatalf("overpayment ratio %g, want %g", m.OverpaymentRatio, want)
		}
	}
}

func TestRunRoundBadScenario(t *testing.T) {
	s := smallScenario()
	s.Slots = 0
	if _, err := RunRound(s, 1, &core.OnlineMechanism{}); err == nil {
		t.Fatal("want error")
	}
}

func TestRunInstanceMechanismError(t *testing.T) {
	in := &core.Instance{Slots: 0} // invalid; mechanism must reject
	if _, err := RunInstance(in, 0, &core.OnlineMechanism{}); err == nil {
		t.Fatal("want error")
	}
}

func TestSeedsDeterministic(t *testing.T) {
	a := Seeds(5, 10)
	b := Seeds(5, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Seeds not deterministic")
		}
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatal("duplicate seed")
		}
		seen[s] = true
	}
}

func TestCompareRunsAllMechanismsOnSameInstance(t *testing.T) {
	scn := smallScenario()
	mechs := []core.Mechanism{
		&core.OnlineMechanism{},
		&core.OfflineMechanism{},
		&baseline.SecondPricePerSlot{},
	}
	reps, err := Compare(scn, Seeds(1, 8), mechs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 8 {
		t.Fatalf("got %d replications, want 8", len(reps))
	}
	for _, rep := range reps {
		if len(rep.Results) != len(mechs) {
			t.Fatalf("replication has %d results", len(rep.Results))
		}
		on, off, sp := rep.Results[0], rep.Results[1], rep.Results[2]
		// Identical instance: same phone and task counts everywhere.
		if on.Phones != off.Phones || on.Tasks != off.Tasks || sp.Phones != on.Phones {
			t.Fatalf("mechanisms saw different instances: %+v", rep)
		}
		// Offline is optimal; online is at least half of it (Theorem 6).
		if off.Welfare < on.Welfare-1e-9 {
			t.Fatalf("seed %d: offline %g < online %g", rep.Seed, off.Welfare, on.Welfare)
		}
		if on.Welfare < off.Welfare/2-1e-9 {
			t.Fatalf("seed %d: competitive ratio violated", rep.Seed)
		}
		// Second-price shares the online allocation, hence its welfare.
		if math.Abs(sp.Welfare-on.Welfare) > 1e-9 {
			t.Fatalf("seed %d: second-price welfare %g != online %g", rep.Seed, sp.Welfare, on.Welfare)
		}
	}
}

func TestCompareDeterministicAcrossWorkerCounts(t *testing.T) {
	scn := smallScenario()
	mechs := []core.Mechanism{&core.OnlineMechanism{}}
	seq, err := Compare(scn, Seeds(2, 6), mechs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compare(scn, Seeds(2, 6), mechs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Seed != par[i].Seed || seq[i].Results[0].Welfare != par[i].Results[0].Welfare {
			t.Fatalf("replication %d differs between worker counts", i)
		}
	}
}

func TestCompareValidation(t *testing.T) {
	if _, err := Compare(smallScenario(), Seeds(1, 2), nil, 1); err == nil || !strings.Contains(err.Error(), "no mechanisms") {
		t.Fatalf("want no-mechanisms error, got %v", err)
	}
	bad := smallScenario()
	bad.MeanCost = -1
	if _, err := Compare(bad, Seeds(1, 2), []core.Mechanism{&core.OnlineMechanism{}}, 1); err == nil {
		t.Fatal("want scenario error")
	}
}

func TestCompareEmptySeeds(t *testing.T) {
	reps, err := Compare(smallScenario(), nil, []core.Mechanism{&core.OnlineMechanism{}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 0 {
		t.Fatal("want empty result")
	}
}

func TestColumnAndExtractors(t *testing.T) {
	reps := []Replication{
		{Seed: 1, Results: []RoundMetrics{{Welfare: 10, OverpaymentRatio: 0.5, Tasks: 4, Served: 2}}},
		{Seed: 2, Results: []RoundMetrics{{Welfare: 20, OverpaymentRatio: 0.7, Tasks: 0, Served: 0}}},
	}
	w := Column(reps, 0, Welfare)
	if len(w) != 2 || w[0] != 10 || w[1] != 20 {
		t.Fatalf("welfare column = %v", w)
	}
	o := Column(reps, 0, OverpaymentRatio)
	if o[0] != 0.5 || o[1] != 0.7 {
		t.Fatalf("overpayment column = %v", o)
	}
	s := Column(reps, 0, ServiceRate)
	if s[0] != 0.5 || s[1] != 0 {
		t.Fatalf("service rate column = %v", s)
	}
}
