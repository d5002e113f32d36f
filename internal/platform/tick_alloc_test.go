package platform

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/protocol"
)

// deadSession stands in for a live connection whose writer is gone:
// every message to it is dropped without allocating, so a test can admit
// thousands of phones without thousands of sockets. The session is
// attached to s like an accepted connection.
func deadSession(s *Server) *session {
	sess := &session{srv: s, done: make(chan struct{}), closing: make(chan struct{})}
	sess.gone.Store(true)
	s.attach(sess)
	return sess
}

// probeTicks plays the method of TestTickAllocationFlatInPopulation.
// Slot 1 admits listening long-lived phones, detached phones whose
// sessions then detach, and one cheap winner per probe tick. Each probe
// tick has a join, an assignment and a departing winner's payment. It
// returns the fewest bytes any probe tick allocated, keeping the
// smallest so that an occasional slice or map growth (which is
// O(phones) but amortized) cannot decide a comparison, and each probe
// tick's enqueue attempts (messages queued plus dropped). The probes
// play slots 10 to 25, whose slot frames all encode to the same length.
func probeTicks(t *testing.T, listening, detached int) (least uint64, attempts []int64) {
	t.Helper()
	const probes, first = 16, 10
	s := newTestServer(t, Config{Slots: first + probes, Value: 100})
	bid := func(sess *session, duration core.Slot, cost float64) {
		t.Helper()
		m := &protocol.Message{Type: protocol.TypeBid, Name: "p", Duration: duration, Cost: cost}
		if err := s.enqueueBid(m, sess); err != nil {
			t.Fatal(err)
		}
	}
	const long = first + probes
	for i := 0; i < listening; i++ {
		bid(deadSession(s), long, 50+float64(i%7))
	}
	gone := make([]*session, detached)
	for i := range gone {
		gone[i] = deadSession(s)
		bid(gone[i], long, 50+float64(i%7))
	}
	// The cheap phones win slot 1's tasks; the one for probe k departs,
	// and is paid, in slot first+k.
	for k := 0; k < probes; k++ {
		bid(deadSession(s), core.Slot(first+k), 1)
	}
	if _, err := s.Tick(probes); err != nil {
		t.Fatal(err)
	}
	for _, sess := range gone {
		s.detach(sess)
	}
	for slot := 2; slot < first; slot++ {
		if _, err := s.Tick(0); err != nil {
			t.Fatal(err)
		}
	}
	least = math.MaxUint64
	var ms runtime.MemStats
	for k := 0; k < probes; k++ {
		bid(deadSession(s), long, 60)
		st := s.Stats()
		sent := st.MessagesQueued + st.MessagesDropped
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		res, err := s.Tick(1)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Joined) != 1 || len(res.Assignments) != 1 || len(res.Payments) != 1 {
			t.Fatalf("slot %d: %d joins, %d assignments, %d payments; want one each",
				res.Slot, len(res.Joined), len(res.Assignments), len(res.Payments))
		}
		least = min(least, ms.TotalAlloc-before)
		st = s.Stats()
		attempts = append(attempts, st.MessagesQueued+st.MessagesDropped-sent)
	}
	return least, attempts
}

// TestTickAllocationFlatInPopulation pins that a tick reads bids by ID
// instead of copying the instance: a tick with a join, an assignment and
// a departing winner's payment allocates the same bytes whether 1,000 or
// 10,000 phones are admitted.
func TestTickAllocationFlatInPopulation(t *testing.T) {
	small, _ := probeTicks(t, 1_000, 0)
	large, _ := probeTicks(t, 10_000, 0)
	t.Logf("bytes allocated by one tick: %d at 1,000 phones, %d at 10,000", small, large)
	if large > small+small/4 {
		t.Fatalf("tick allocates %d B at 10,000 phones against %d B at 1,000; it grows with the population", large, small)
	}
}

// TestTickFlatAfterDetach pins that phones whose sessions detached cost
// a tick nothing: after 10,000 phones were admitted and detached, every
// probe tick makes exactly the enqueue attempts it makes with none
// detached, and allocates no more.
func TestTickFlatAfterDetach(t *testing.T) {
	base, baseSent := probeTicks(t, 1_000, 0)
	churned, churnedSent := probeTicks(t, 1_000, 10_000)
	t.Logf("bytes allocated by one tick: %d with 0 detached phones, %d with 10,000", base, churned)
	for k := range baseSent {
		if churnedSent[k] != baseSent[k] {
			t.Fatalf("probe tick %d enqueues %d messages with 10,000 detached phones, %d with none",
				k, churnedSent[k], baseSent[k])
		}
	}
	if churned > base {
		t.Fatalf("tick allocates %d B after 10,000 phones detached against %d B with none", churned, base)
	}
}

// BenchmarkTickAfterChurn times one slot tick with 8 live phones after
// 0 and after 10,000 phones were admitted and detached. The live phones'
// sessions stay attached but their writers are gone, so the fan-out
// costs its enqueue attempts and no socket writes. Phones admitted this
// round stay in the auction after they detach, so what the tick still
// spends on them is core.OnlineAuction.Step's own work.
func BenchmarkTickAfterChurn(b *testing.B) {
	for _, detached := range []int{0, 10_000} {
		b.Run(fmt.Sprintf("detached=%d", detached), func(b *testing.B) {
			s, err := Listen("127.0.0.1:0", Config{Slots: core.Slot(b.N + 2), Value: 30})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			bid := func(sess *session, duration core.Slot) {
				m := &protocol.Message{Type: protocol.TypeBid, Name: "p", Duration: duration, Cost: 10}
				if err := s.enqueueBid(m, sess); err != nil {
					b.Fatal(err)
				}
			}
			gone := make([]*session, detached)
			for i := range gone {
				gone[i] = deadSession(s)
				bid(gone[i], 1)
			}
			for i := 0; i < 8; i++ {
				bid(deadSession(s), core.Slot(b.N+2))
			}
			if _, err := s.Tick(0); err != nil {
				b.Fatal(err)
			}
			for _, sess := range gone {
				s.detach(sess)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Tick(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
