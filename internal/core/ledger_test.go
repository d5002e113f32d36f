package core

import (
	"errors"
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
// decision-by-decision through the Ledger API and checks that
// Ledger.Outcome reports the auction's allocation, winning slots and
// welfare with every payment left zero — on the recording ledger, on a
// ledger overwritten by CopyFrom, and on one replayed again after Reset.
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
	for s := Slot(1); s <= in.Slots; s++ {
		if _, err := oa.Step(byArrival[s], perSlot[s-1]); err != nil {
			t.Fatal(err)
		}
	}
	want := oa.Outcome()

	// mirror replays the round into l: a single global heap plays the
	// allocator, the Ledger records its decisions.
	mirror := func(l *Ledger) {
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
				if winner := h.popEligible(s); winner != NoPhone {
					l.RecordWin(id, winner, s)
				}
			}
		}
	}
	check := func(tag string, l *Ledger) {
		t.Helper()
		got := l.Outcome()
		for k := range want.Allocation.ByTask {
			if got.Allocation.ByTask[k] != want.Allocation.ByTask[k] {
				t.Fatalf("%s: task %d winner %d != %d", tag, k, got.Allocation.ByTask[k], want.Allocation.ByTask[k])
			}
		}
		for i := range want.Allocation.WonAt {
			if got.Allocation.WonAt[i] != want.Allocation.WonAt[i] || l.WonAt(PhoneID(i)) != want.Allocation.WonAt[i] {
				t.Fatalf("%s: phone %d won at %d (WonAt %d), want %d", tag, i, got.Allocation.WonAt[i], l.WonAt(PhoneID(i)), want.Allocation.WonAt[i])
			}
			if got.Payments[i] != 0 {
				t.Fatalf("%s: phone %d paid %v by the ledger", tag, i, got.Payments[i])
			}
		}
		if got.Welfare != want.Welfare {
			t.Fatalf("%s: welfare %v != %v", tag, got.Welfare, want.Welfare)
		}
	}

	l, err := NewLedger(in.Slots, in.Value, in.AllocateAtLoss)
	if err != nil {
		t.Fatal(err)
	}
	mirror(l)
	check("ledger", l)

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

	// CopyFrom overwrites a ledger holding another round; Reset then
	// leaves a ledger that records the round like a fresh one.
	cp, err := NewLedger(in.Slots, in.Value, in.AllocateAtLoss)
	if err != nil {
		t.Fatal(err)
	}
	id, err := cp.AddBid(2, StreamBid{Departure: 3, Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	cp.RecordWin(cp.AddTask(2), id, 2)
	cp.AddTask(3)
	cp.CopyFrom(l)
	check("copy", cp)
	cp.Reset()
	if cp.NumPhones() != 0 || cp.NumTasks() != 0 {
		t.Fatalf("reset ledger holds %d phones, %d tasks", cp.NumPhones(), cp.NumTasks())
	}
	mirror(cp)
	check("reset", cp)
}
