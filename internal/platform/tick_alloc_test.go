package platform

import (
	"math"
	"runtime"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/protocol"
)

// deadSession stands in for a connection whose writer is gone: every
// message to it is dropped without allocating, so a test can admit
// thousands of phones without thousands of sockets.
func deadSession(s *Server) *session {
	sess := &session{srv: s, done: make(chan struct{})}
	sess.gone.Store(true)
	return sess
}

// TestTickAllocationFlatInPopulation pins that a tick reads bids by ID
// instead of copying the instance: a tick with a join, an assignment and
// a departing winner's payment allocates the same bytes whether 1,000 or
// 10,000 phones are admitted. Each population plays several such ticks
// and keeps the smallest, so an occasional slice or map growth (which
// is O(phones) but amortized) cannot decide the comparison.
func TestTickAllocationFlatInPopulation(t *testing.T) {
	const probes = 16
	measure := func(n int) uint64 {
		s := newTestServer(t, Config{Slots: probes + 2, Value: 100})
		bid := func(duration core.Slot, cost float64) {
			t.Helper()
			m := &protocol.Message{Type: protocol.TypeBid, Name: "p", Duration: duration, Cost: cost}
			if err := s.enqueueBid(m, deadSession(s)); err != nil {
				t.Fatal(err)
			}
		}
		// Slot 1 admits n long-lived phones and one cheap winner per probe
		// tick; the winner for probe k departs, and is paid, in slot k+2.
		for i := 0; i < n; i++ {
			bid(probes+2, 50+float64(i%7))
		}
		for k := 0; k < probes; k++ {
			bid(core.Slot(k+2), 1)
		}
		if _, err := s.Tick(probes); err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for k := 0; k < probes; k++ {
			bid(probes+2, 60)
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			res, err := s.Tick(1)
			runtime.ReadMemStats(&ms)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Joined) != 1 || len(res.Assignments) != 1 || len(res.Payments) != 1 {
				t.Fatalf("n=%d slot %d: %d joins, %d assignments, %d payments; want one each",
					n, res.Slot, len(res.Joined), len(res.Assignments), len(res.Payments))
			}
			least = min(least, ms.TotalAlloc-before)
		}
		return least
	}
	small, large := measure(1_000), measure(10_000)
	t.Logf("bytes allocated by one tick: %d at 1,000 phones, %d at 10,000", small, large)
	if large > small+small/4 {
		t.Fatalf("tick allocates %d B at 10,000 phones against %d B at 1,000; it grows with the population", large, small)
	}
}
