package platform

import (
	"math"
	"testing"

	"dynacrowd/internal/core"
)

// TestOfflineBenchmarkStats: a server with the offline benchmark on
// solves ω* when the round closes, and the stats
// expose it. The optimum must match a direct offline solve of the
// equivalent batch instance and dominate the realized online welfare
// (the live competitive-ratio check).
func TestOfflineBenchmarkStats(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 25, OfflineBenchmark: true})
	a := dialAgent(t, s.Addr())
	b := dialAgent(t, s.Addr())

	if err := a.SubmitBid("a", 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitBid("b", 3, 7); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 3; slot++ {
		if _, err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Done() {
		t.Fatal("server not done after final slot")
	}

	st := s.Stats()
	if st.OfflineRounds != 1 {
		t.Fatalf("OfflineRounds = %d, want 1", st.OfflineRounds)
	}
	want, err := (&core.OfflineMechanism{}).Welfare(s.Instance())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.OfflineOptimum-want) > 1e-9 {
		t.Fatalf("OfflineOptimum = %g, want batch offline optimum %g", st.OfflineOptimum, want)
	}
	if st.OfflineOptimum < st.TotalWelfare-1e-9 {
		t.Fatalf("offline optimum %g below online welfare %g", st.OfflineOptimum, st.TotalWelfare)
	}
}

// TestOfflineBenchmarkDisabled: with the benchmark off the tallies stay
// zero — the solve must not run at all on the default path.
func TestOfflineBenchmarkDisabled(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 10})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("a", 1, 3); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		if _, err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.OfflineRounds != 0 || st.OfflineOptimum != 0 {
		t.Fatalf("benchmark ran while disabled: %+v", st)
	}
}

// TestOfflineBenchmarkMultiRound: the tally accumulates across
// configured rounds, one solve per round close.
func TestOfflineBenchmarkMultiRound(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 15, Rounds: 3, OfflineBenchmark: true})
	a := dialAgent(t, s.Addr())
	for round := 0; round < 3; round++ {
		if err := a.SubmitBid("a", 1, 5); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 2; slot++ {
			if _, err := s.Tick(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.OfflineRounds != 3 {
		t.Fatalf("OfflineRounds = %d, want 3", st.OfflineRounds)
	}
	if st.OfflineOptimum < st.TotalWelfare-1e-9 {
		t.Fatalf("cumulative optimum %g below cumulative welfare %g", st.OfflineOptimum, st.TotalWelfare)
	}
}
