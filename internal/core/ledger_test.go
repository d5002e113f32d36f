package core

import (
	"errors"
	"math"
	"testing"
)

// TestValidateInvertedWindowTyped is the regression test for the typed
// inverted-window rejection: Validate must report ã > d̃ as
// ErrWindowInverted (matchable with errors.Is) rather than folding it
// into the generic out-of-range message, at every admission surface.
func TestValidateInvertedWindowTyped(t *testing.T) {
	bad := Bid{Phone: 0, Arrival: 4, Departure: 2, Cost: 1}
	err := bad.Validate(10)
	if !errors.Is(err, ErrWindowInverted) {
		t.Fatalf("Validate: got %v, want ErrWindowInverted", err)
	}

	// Instance validation surfaces the same typed error.
	in := &Instance{Slots: 10, Value: 30, Bids: []Bid{bad}}
	if err := in.Validate(); !errors.Is(err, ErrWindowInverted) {
		t.Fatalf("Instance.Validate: got %v, want ErrWindowInverted", err)
	}

	// Ledger admission rejects and does not admit.
	l, err := NewLedger(10, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddBid(4, StreamBid{Departure: 2, Cost: 1}); !errors.Is(err, ErrWindowInverted) {
		t.Fatalf("Ledger.AddBid: got %v, want ErrWindowInverted", err)
	}
	if l.NumPhones() != 0 {
		t.Fatalf("rejected bid admitted: %d phones", l.NumPhones())
	}

	// A window that is merely out of range keeps the generic error.
	outside := Bid{Phone: 0, Arrival: 2, Departure: 99, Cost: 1}
	if err := outside.Validate(10); err == nil || errors.Is(err, ErrWindowInverted) {
		t.Fatalf("out-of-range window misclassified: %v", err)
	}
}

func TestNewLedgerValidation(t *testing.T) {
	if _, err := NewLedger(0, 30, false); err == nil {
		t.Fatal("want error for zero slots")
	}
	if _, err := NewLedger(5, -1, false); err == nil {
		t.Fatal("want error for negative value")
	}
}

// TestLedgerMirrorsOnlineAuction rebuilds an OnlineAuction round
// decision-by-decision through the Ledger API and checks that the
// Pricer prices every winner to the same floats under both engines.
func TestLedgerMirrorsOnlineAuction(t *testing.T) {
	in := &Instance{
		Slots: 6, Value: 30,
		Bids: []Bid{
			{Phone: 0, Arrival: 1, Departure: 3, Cost: 5},
			{Phone: 1, Arrival: 1, Departure: 6, Cost: 12},
			{Phone: 2, Arrival: 2, Departure: 4, Cost: 5},  // ties phone 0's cost
			{Phone: 3, Arrival: 2, Departure: 2, Cost: 40}, // reserve-priced
			{Phone: 4, Arrival: 3, Departure: 6, Cost: 8},
			{Phone: 5, Arrival: 4, Departure: 6, Cost: 29},
		},
		Tasks: []Task{
			{ID: 0, Arrival: 1},
			{ID: 1, Arrival: 2},
			{ID: 2, Arrival: 2},
			{ID: 3, Arrival: 4},
			{ID: 4, Arrival: 5},
		},
	}
	byArrival := make([][]StreamBid, in.Slots+1)
	for _, b := range in.Bids {
		byArrival[b.Arrival] = append(byArrival[b.Arrival], StreamBid{Departure: b.Departure, Cost: b.Cost})
	}
	perSlot := in.TasksPerSlot()

	oa, err := NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLedger(in.Slots, in.Value, in.AllocateAtLoss)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the sequential engine through the Ledger: a single global
	// heap plays the allocator, the Ledger records its decisions.
	var h costHeap
	for s := Slot(1); s <= in.Slots; s++ {
		for _, sb := range byArrival[s] {
			id, err := l.AddBid(s, sb)
			if err != nil {
				t.Fatal(err)
			}
			if l.AllocateAtLoss() || sb.Cost < l.Value() {
				h.bids = l.Bids() // refresh the view after growth
				h.push(id)
			}
		}
		h.bids = l.Bids()
		for k := 0; k < perSlot[s-1]; k++ {
			id := l.AddTask(s)
			winner := h.popEligible(s)
			if winner == NoPhone {
				l.RecordUnserved(s)
				continue
			}
			l.RecordWin(id, winner, h.peekEligible(s), s)
		}
		if _, err := oa.Step(byArrival[s], perSlot[s-1]); err != nil {
			t.Fatal(err)
		}
	}

	want := oa.Outcome()
	for _, engine := range []PaymentEngine{CascadePayments, OraclePayments} {
		got := l.Outcome(l.NewPricer(engine, nil))
		for k := range want.Allocation.ByTask {
			if want.Allocation.ByTask[k] != got.Allocation.ByTask[k] {
				t.Fatalf("%s: task %d winner %d != %d", engine.Name(), k, got.Allocation.ByTask[k], want.Allocation.ByTask[k])
			}
		}
		for i := range want.Payments {
			if math.Float64bits(want.Payments[i]) != math.Float64bits(got.Payments[i]) {
				t.Fatalf("%s: phone %d payment %v != %v", engine.Name(), i, got.Payments[i], want.Payments[i])
			}
		}
		if want.Welfare != got.Welfare {
			t.Fatalf("%s: welfare %v != %v", engine.Name(), got.Welfare, want.Welfare)
		}
	}

	// Bulk accessors feed snapshots; they must match the live state.
	byTask, wonAt := l.ByTask(), l.WonAtSlots()
	for k := range byTask {
		if byTask[k] != want.Allocation.ByTask[k] {
			t.Fatalf("ByTask[%d] = %d != %d", k, byTask[k], want.Allocation.ByTask[k])
		}
	}
	for i := range wonAt {
		if wonAt[i] != l.WonAt(PhoneID(i)) {
			t.Fatalf("WonAtSlots[%d] = %d != %d", i, wonAt[i], l.WonAt(PhoneID(i)))
		}
	}

	// CopyFrom overwrites a ledger holding another round, and a pricer
	// that already priced that round sees the copy; Reset then leaves a
	// ledger that records and prices like a fresh one.
	cp, err := NewLedger(in.Slots, in.Value, in.AllocateAtLoss)
	if err != nil {
		t.Fatal(err)
	}
	small := func(l *Ledger) {
		id, err := l.AddBid(2, StreamBid{Departure: 3, Cost: 1})
		if err != nil {
			t.Fatal(err)
		}
		l.RecordWin(l.AddTask(2), id, NoPhone, 2)
		l.RecordUnserved(3)
	}
	small(cp)
	pricer := cp.NewPricer(CascadePayments, nil)
	cp.Outcome(pricer)
	cp.CopyFrom(l)
	got := cp.Outcome(pricer)
	for i := range want.Payments {
		if math.Float64bits(want.Payments[i]) != math.Float64bits(got.Payments[i]) {
			t.Fatalf("copy: phone %d payment %v != %v", i, got.Payments[i], want.Payments[i])
		}
	}
	cp.Reset()
	if cp.NumPhones() != 0 || cp.NumTasks() != 0 {
		t.Fatalf("reset ledger holds %d phones, %d tasks", cp.NumPhones(), cp.NumTasks())
	}
	fresh, err := NewLedger(in.Slots, in.Value, in.AllocateAtLoss)
	if err != nil {
		t.Fatal(err)
	}
	small(cp)
	small(fresh)
	if a, b := cp.Outcome(pricer), fresh.Outcome(fresh.NewPricer(CascadePayments, nil)); a.Payments[0] != b.Payments[0] || a.Welfare != b.Welfare {
		t.Fatalf("reset ledger pays %v (welfare %v), fresh %v (welfare %v)", a.Payments[0], a.Welfare, b.Payments[0], b.Welfare)
	}
}
