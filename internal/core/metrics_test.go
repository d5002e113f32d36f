package core

import (
	"testing"

	"dynacrowd/internal/obs"
)

// TestRunInstrumentation: an instrumented batch run observes both
// latency phases and counts one cascade invocation per winner.
func TestRunInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	SetDefaultMetrics(m)
	defer SetDefaultMetrics(nil)
	in := &Instance{
		Slots: 3, Value: 10,
		Bids: []Bid{
			{Phone: 0, Arrival: 1, Departure: 2, Cost: 3},
			{Phone: 1, Arrival: 1, Departure: 3, Cost: 4},
			{Phone: 2, Arrival: 2, Departure: 3, Cost: 5},
		},
		Tasks: []Task{{ID: 0, Arrival: 1}, {ID: 1, Arrival: 2}},
	}
	out, err := (&OnlineMechanism{}).Run(in)
	if err != nil {
		t.Fatal(err)
	}
	winners := len(out.Allocation.Winners())
	if winners == 0 {
		t.Fatal("test instance produced no winners")
	}
	if got := m.CascadeCalls.Value(); got != uint64(winners) {
		t.Fatalf("cascade invocations = %d, want %d (one per winner)", got, winners)
	}
	if m.SlotAllocSeconds.Count() != 1 || m.PaymentSeconds.Count() != 1 {
		t.Fatalf("latency observations alloc=%d payment=%d, want 1 each",
			m.SlotAllocSeconds.Count(), m.PaymentSeconds.Count())
	}
}

// TestStreamingInstrumentationAndDepartures: SetMetrics times every
// Step, and TrackDepartures reports departing losers and winners alike.
func TestStreamingInstrumentationAndDepartures(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	oa, err := NewOnlineAuction(3, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	oa.SetMetrics(m)
	oa.TrackDepartures(true)

	// Slot 1: two bids arrive, one task — phone 0 (cheaper) wins.
	res, err := oa.Step([]StreamBid{{Departure: 1, Cost: 2}, {Departure: 2, Cost: 5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Phone 0 wins and departs in slot 1.
	if len(res.Departed) != 1 || res.Departed[0] != 0 {
		t.Fatalf("slot 1 departed = %v, want [0]", res.Departed)
	}
	if len(res.Payments) != 1 {
		t.Fatalf("slot 1 payments = %v", res.Payments)
	}
	// Slot 2: no tasks; phone 1 departs without having won.
	res, err = oa.Step(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Departed) != 1 || res.Departed[0] != 1 {
		t.Fatalf("slot 2 departed = %v, want the losing phone [1]", res.Departed)
	}
	if len(res.Payments) != 0 {
		t.Fatalf("loser was paid: %v", res.Payments)
	}
	if got := m.SlotAllocSeconds.Count(); got != 2 {
		t.Fatalf("alloc latency observations = %d, want 2 (one per Step)", got)
	}
	// Untracked auctions must not pay for the Departed list.
	oa2, _ := NewOnlineAuction(3, 10, false)
	res, err = oa2.Step([]StreamBid{{Departure: 1, Cost: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed != nil {
		t.Fatalf("departure tracking on by default: %v", res.Departed)
	}
}

// TestDefaultMetricsFallback: SetDefaultMetrics instruments every
// OnlineMechanism value, however it was constructed.
func TestDefaultMetricsFallback(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	SetDefaultMetrics(m)
	defer SetDefaultMetrics(nil)
	in := &Instance{
		Slots: 2, Value: 10,
		Bids:  []Bid{{Phone: 0, Arrival: 1, Departure: 2, Cost: 3}},
		Tasks: []Task{{ID: 0, Arrival: 1}},
	}
	if _, err := (&OnlineMechanism{}).Run(in); err != nil {
		t.Fatal(err)
	}
	if m.CascadeCalls.Value() == 0 {
		t.Fatal("default metrics not picked up by Run")
	}
}
