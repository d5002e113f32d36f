package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	for s := 1; s <= 3; s++ {
		if _, err := l.Advance(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Advance([]StreamBid{{Departure: 2, Cost: 1}}, 0); !errors.Is(err, ErrWindowInverted) {
		t.Fatalf("Ledger.Advance: got %v, want ErrWindowInverted", err)
	}
	if l.NumPhones() != 0 || l.Now() != 3 {
		t.Fatalf("rejected slot changed the ledger: %d phones, clock %d", l.NumPhones(), l.Now())
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
	// The pool stores departures as int32.
	if _, err := NewLedger(math.MaxInt32+1, 30, false); err == nil {
		t.Fatal("want error for a round longer than MaxInt32 slots")
	}
}

// TestLedgerMirrorsOnlineAuction drives a bare Ledger through an
// OnlineAuction round by its exported API, as the budgeted engine does,
// and checks that Ledger.Outcome reports the auction's allocation,
// winning slots and welfare with every payment left zero — on the
// recording ledger, and for every slot s on a ledger Rewound to s (and
// on a CopyFrom of it) that steps the rest of the round. It also checks
// that Rewind keeps phones dropped by s out of the pool.
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

	// mirror replays the round into l after slot from: the Ledger's own
	// pool plays the allocator, the Ledger records its decisions.
	mirror := func(l *Ledger, from Slot) {
		for s := from + 1; s <= in.Slots; s++ {
			if _, err := l.Advance(byArrival[s], perSlot[s-1]); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < perSlot[s-1]; k++ {
				id := l.AddTask()
				if winner := l.PopUsable(); winner != NoPhone {
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
	mirror(l, 0)
	check("ledger", l)

	// The checkpoint feeds snapshots; it must match the live state.
	c := l.Checkpoint()
	for k := range c.ByTask {
		if c.ByTask[k] != want.Allocation.ByTask[k] {
			t.Fatalf("Checkpoint ByTask[%d] = %d != %d", k, c.ByTask[k], want.Allocation.ByTask[k])
		}
	}
	for i := range c.WonAt {
		if c.WonAt[i] != l.WonAt(PhoneID(i)) {
			t.Fatalf("Checkpoint WonAt[%d] = %d != %d", i, c.WonAt[i], l.WonAt(PhoneID(i)))
		}
	}

	// other returns an m-slot ledger holding another round: three slots
	// of phones and tasks, a win in slot 2.
	other := func(m Slot) *Ledger {
		o, err := NewLedger(m, 7, !in.AllocateAtLoss)
		if err != nil {
			t.Fatal(err)
		}
		for s := Slot(1); s <= 3; s++ {
			if _, err := o.Advance([]StreamBid{{Departure: 3, Cost: 1}}, 1); err != nil {
				t.Fatal(err)
			}
			if k := o.AddTask(); s == 2 {
				o.RecordWin(k, PhoneID(1), s)
			}
		}
		return o
	}

	// Rewound to the close of any slot s, a ledger holding another round
	// (of another shape) finishes the round as recorded, and so does a
	// same-shape ledger that copies the rewind. Rewinding to 0 is the
	// fresh round, which catches a stale task left behind.
	for s := Slot(0); s <= in.Slots; s++ {
		rw, cp := other(3), other(in.Slots)
		rw.Rewind(l, s, nil)
		if s == 0 && (rw.NumPhones() != 0 || rw.NumTasks() != 0) {
			t.Fatalf("rewind to 0 holds %d phones, %d tasks", rw.NumPhones(), rw.NumTasks())
		}
		cp.CopyFrom(rw)
		mirror(rw, s)
		check(fmt.Sprintf("rewind to %d", s), rw)
		mirror(cp, s)
		check(fmt.Sprintf("copy of rewind to %d", s), cp)
	}

	// A phone dropped by s never enters the rewound pool; one dropped
	// later does. After slot 1, phone 0 holds task 0 and phone 1 is
	// pooled; slot 2 admits phone 2 and the reserve-priced phone 3.
	for _, tc := range []struct {
		dropped []Slot
		want    []PhoneID
	}{
		{nil, []PhoneID{2, 1}},
		{[]Slot{0, 1}, []PhoneID{2}},
		{[]Slot{0, 2}, []PhoneID{2, 1}},
	} {
		rw := other(in.Slots)
		rw.Rewind(l, 1, tc.dropped)
		if _, err := rw.Advance(byArrival[2], 0); err != nil {
			t.Fatal(err)
		}
		var got []PhoneID
		for p := rw.PopUsable(); p != NoPhone; p = rw.PopUsable() {
			got = append(got, p)
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("rewind to 1 with dropped %v pops %v, want %v", tc.dropped, got, tc.want)
		}
	}
}

// TestLedgerCompactsPool churns 400 poolable phones through a 40-slot
// round by Advance, ten arriving in each slot for an eight-slot window
// while two tasks a slot draw winners, and checks after every slot that
// the pool holds fewer than max(64, 2 × its undeparted entries), the
// bound costHeap.compact keeps under steady churn. Without compaction
// the departed entries pile up and the pool outgrows it in slot 18.
func TestLedgerCompactsPool(t *testing.T) {
	const m, perSlot, window, tasks = 40, 10, 8, 2
	rng := rand.New(rand.NewSource(29))
	l, err := NewLedger(m, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	for s := Slot(1); s <= m; s++ {
		arriving := make([]StreamBid, perSlot)
		for k := range arriving {
			arriving[k] = StreamBid{Departure: min(s+window-1, m), Cost: 1 + 28*rng.Float64()}
		}
		if _, err := l.Advance(arriving, tasks); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < tasks; k++ {
			id := l.AddTask()
			if winner := l.PopUsable(); winner != NoPhone {
				l.RecordWin(id, winner, s)
			}
		}
		undeparted := 0
		for _, e := range l.pool.items {
			if Slot(e.dep) >= s {
				undeparted++
			}
		}
		if n := l.pool.len(); n >= max(64, 2*undeparted) {
			t.Fatalf("slot %d: pool holds %d entries, %d undeparted", s, n, undeparted)
		}
	}
}
