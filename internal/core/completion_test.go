package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// stepOne is a test helper: advance the auction one slot with the given
// arrivals and task count, failing the test on error.
func stepOne(t *testing.T, oa *OnlineAuction, arriving []StreamBid, tasks int) *SlotResult {
	t.Helper()
	res, err := oa.Step(arriving, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompletionTypedErrors exercises every validation surface of the
// lifecycle API: each misuse is rejected with the matching typed error
// and the auction state is left undisturbed.
func TestCompletionTypedErrors(t *testing.T) {
	oa, err := NewOnlineAuction(3, 30, false)
	if err != nil {
		t.Fatal(err)
	}

	// Tracking off: lifecycle calls are typed rejections, not panics.
	if err := oa.Complete(0); !errors.Is(err, ErrNotTracking) {
		t.Fatalf("Complete with tracking off: %v, want ErrNotTracking", err)
	}
	if _, err := oa.Default(0); !errors.Is(err, ErrNotTracking) {
		t.Fatalf("Default with tracking off: %v, want ErrNotTracking", err)
	}

	oa.TrackCompletions(true)
	// Unknown phone IDs (no bids yet).
	if err := oa.Complete(5); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("Complete unknown phone: %v, want ErrNotAssigned", err)
	}
	if _, err := oa.Default(-1); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("Default negative phone: %v, want ErrNotAssigned", err)
	}

	// Slot 1: phone 0 (cost 5) wins the task; phone 1 (cost 7) stands by.
	res := stepOne(t, oa, []StreamBid{{Departure: 3, Cost: 5}, {Departure: 3, Cost: 7}}, 1)
	if len(res.Assignments) != 1 || res.Assignments[0].Phone != 0 {
		t.Fatalf("unexpected slot-1 assignments: %+v", res.Assignments)
	}

	// A loser has no live assignment.
	if err := oa.Complete(1); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("Complete non-winner: %v, want ErrNotAssigned", err)
	}
	if _, err := oa.Default(1); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("Default non-winner: %v, want ErrNotAssigned", err)
	}

	// Complete once: fine. Twice: ErrAlreadyCompleted. Defaulting a
	// delivered task: ErrAlreadyCompleted too.
	if err := oa.Complete(0); err != nil {
		t.Fatalf("first Complete: %v", err)
	}
	if err := oa.Complete(0); !errors.Is(err, ErrAlreadyCompleted) {
		t.Fatalf("second Complete: %v, want ErrAlreadyCompleted", err)
	}
	if _, err := oa.Default(0); !errors.Is(err, ErrAlreadyCompleted) {
		t.Fatalf("Default after Complete: %v, want ErrAlreadyCompleted", err)
	}

	// Default the replacement-eligible phone 1 after it wins, then hit
	// the defaulted-phone surfaces.
	res = stepOne(t, oa, nil, 1) // slot 2: phone 1 wins the new task
	if len(res.Assignments) != 1 || res.Assignments[0].Phone != 1 {
		t.Fatalf("unexpected slot-2 assignments: %+v", res.Assignments)
	}
	if _, err := oa.Default(1); err != nil {
		t.Fatalf("Default live winner: %v", err)
	}
	if err := oa.Complete(1); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("Complete after Default: %v, want ErrNotAssigned", err)
	}
	if _, err := oa.Default(1); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("double Default: %v, want ErrNotAssigned", err)
	}

	// The misuses above must not have perturbed the tallies.
	counts := oa.CompletionCounts()
	if counts.Completed != 1 || counts.Defaulted != 1 {
		t.Fatalf("counts after error gauntlet: %+v", counts)
	}
}

// TestDefaultReallocatesAndPricesReplacement: a defaulted winner's task
// moves to the next-cheapest eligible bidder, which is then paid its own
// critical value; the defaulted phone nets zero.
func TestDefaultReallocatesAndPricesReplacement(t *testing.T) {
	oa, err := NewOnlineAuction(3, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	oa.TrackCompletions(true)

	// Slot 1: costs 5 < 7 < 9, one task. Phone 0 wins.
	bids := []StreamBid{{Departure: 3, Cost: 5}, {Departure: 3, Cost: 7}, {Departure: 3, Cost: 9}}
	res := stepOne(t, oa, bids, 1)
	if len(res.Assignments) != 1 || res.Assignments[0].Phone != 0 {
		t.Fatalf("slot 1 assignments: %+v", res.Assignments)
	}

	dr, err := oa.Default(0)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Replacement != 1 {
		t.Fatalf("replacement %d, want next-cheapest phone 1", dr.Replacement)
	}
	if dr.Clawback != 0 {
		t.Fatalf("clawback %g for a never-paid winner", dr.Clawback)
	}
	if len(dr.Payments) != 0 {
		t.Fatalf("immediate payments %+v for an undeparted replacement", dr.Payments)
	}
	if st := oa.Completion(1); st.Status != StatusAssigned || st.Task != dr.Task {
		t.Fatalf("replacement state %+v", st)
	}

	// Play the round out; the replacement settles at its departure.
	stepOne(t, oa, nil, 0)
	res = stepOne(t, oa, nil, 0)
	var paid float64
	for _, p := range res.Payments {
		if p.Phone == 1 {
			paid = p.Amount
		}
	}
	// Phone 1's critical value with phone 0 defaulted: the next eligible
	// competitor is phone 2 at cost 9.
	if paid != 9 {
		t.Fatalf("replacement paid %g, want its critical value 9", paid)
	}
	out := oa.Outcome()
	if out.Payments[0] != 0 {
		t.Fatalf("defaulted phone paid %g in the outcome", out.Payments[0])
	}
	if out.Payments[1] != 9 {
		t.Fatalf("outcome pays replacement %g, want 9", out.Payments[1])
	}
	counts := oa.CompletionCounts()
	if counts.Defaulted != 1 || counts.Reallocated != 1 || counts.Unreplaced != 0 || counts.Clawbacks != 0 {
		t.Fatalf("counts: %+v", counts)
	}
}

// TestDefaultAfterPaymentClawsBack: a winner paid at its departure and
// defaulted afterwards owes the payment back; a replacement drafted
// after its own departure is paid immediately.
func TestDefaultAfterPaymentClawsBack(t *testing.T) {
	oa, err := NewOnlineAuction(3, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	oa.TrackCompletions(true)

	// Slot 1: phone 0 (cost 5, departs slot 1) wins and settles at once;
	// phone 1 (cost 7, departs slot 2) is the future replacement.
	res := stepOne(t, oa, []StreamBid{{Departure: 1, Cost: 5}, {Departure: 2, Cost: 7}}, 1)
	if len(res.Payments) != 1 || res.Payments[0].Phone != 0 {
		t.Fatalf("slot 1 payments: %+v", res.Payments)
	}
	issued := res.Payments[0].Amount
	if issued <= 0 {
		t.Fatalf("issued payment %g", issued)
	}

	// Slot 2 passes; phone 1 departs unassigned (not yet a winner).
	stepOne(t, oa, nil, 0)

	// The paid winner now defaults: clawback equals the issued amount,
	// and the replacement — already departed — is paid immediately.
	dr, err := oa.Default(0)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Clawback != issued {
		t.Fatalf("clawback %g, want issued amount %g", dr.Clawback, issued)
	}
	if dr.Replacement != 1 {
		t.Fatalf("replacement %d, want phone 1", dr.Replacement)
	}
	if len(dr.Payments) != 1 || dr.Payments[0].Phone != 1 {
		t.Fatalf("immediate replacement payment missing: %+v", dr.Payments)
	}

	out := oa.Outcome()
	if out.Payments[0] != 0 {
		t.Fatalf("defaulted phone nets %g in the outcome", out.Payments[0])
	}
	if math.Abs(out.Payments[1]-dr.Payments[0].Amount) > 1e-12 {
		t.Fatalf("outcome pays replacement %g, issued %g", out.Payments[1], dr.Payments[0].Amount)
	}
	counts := oa.CompletionCounts()
	if counts.Clawbacks != 1 {
		t.Fatalf("counts: %+v", counts)
	}
	if st := oa.Completion(0); st.Status != StatusDefaulted || st.Paid != issued {
		t.Fatalf("defaulted state %+v", st)
	}
}

// TestTrackCompletionsMidRound enables the lifecycle after payments
// have been issued untracked: the winners paid so far keep their amounts
// and payment clocks, a paid winner's default claws its amount back, and
// a replacement drafted after its departure is paid at once. The
// figures below were recorded while every phone carried its own payment
// record, tracked or not; untracked, the amount now sits on the task.
func TestTrackCompletionsMidRound(t *testing.T) {
	oa, err := NewOnlineAuction(6, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 1: phones 0 and 1 win; phone 0 departs and is paid 9. Slot 2:
	// phone 2 wins. Slot 3: phone 2 departs and is paid 12, and phone 3
	// departs without a win.
	stepOne(t, oa, []StreamBid{{Departure: 1, Cost: 5}, {Departure: 6, Cost: 7}, {Departure: 3, Cost: 9},
		{Departure: 3, Cost: 12}, {Departure: 6, Cost: 20}}, 2)
	stepOne(t, oa, nil, 1)
	stepOne(t, oa, nil, 0)

	oa.TrackCompletions(true)
	dr, err := oa.Default(0)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Task != 0 || dr.Slot != 1 || dr.Replacement != 3 || dr.Clawback != 9 ||
		len(dr.Payments) != 1 || dr.Payments[0] != (PaymentNotice{Phone: 3, Amount: 20}) {
		t.Fatalf("default: %+v", dr)
	}

	type standing struct {
		task    TaskID
		won     Slot
		paid    float64
		settled bool
	}
	check := func(when string, want []CompletionState, wantStanding []standing) {
		t.Helper()
		for p := range want {
			if got := oa.Completion(PhoneID(p)); got != want[p] {
				t.Errorf("%s: phone %d state %+v, want %+v", when, p, got, want[p])
			}
			var got standing
			got.task, got.won, got.paid, got.settled = oa.Standing(PhoneID(p))
			if got != wantStanding[p] {
				t.Errorf("%s: phone %d standing %+v, want %+v", when, p, got, wantStanding[p])
			}
		}
		sameAfterRestore(t, oa)
	}
	check("after the default",
		[]CompletionState{
			{Status: StatusDefaulted, Task: NoTask, Paid: 9, PaidAt: 1},
			{Status: StatusAssigned, Task: 1, Slot: 1},
			{Status: StatusAssigned, Task: 2, Slot: 2, Paid: 12, PaidAt: 3},
			{Status: StatusAssigned, Task: 0, Slot: 1, Paid: 20, PaidAt: 3},
			{Status: StatusNone, Task: NoTask},
		},
		[]standing{{NoTask, 0, 9, true}, {1, 1, 0, false}, {2, 2, 12, true}, {0, 1, 20, true}, {NoTask, 0, 0, false}})

	data, err := oa.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(c.Completions.Paid, c.Completions.PaidAt), "[9 0 12 20 0] [1 0 3 3 0]"; got != want {
		t.Errorf("snapshot Paid, PaidAt = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(c.WonAt), "[0 1 2 1 0]"; got != want {
		t.Errorf("snapshot WonAt = %s, want %s", got, want)
	}

	for s := 4; s <= 6; s++ {
		stepOne(t, oa, nil, 0)
	}
	check("at the round's end",
		[]CompletionState{
			{Status: StatusDefaulted, Task: NoTask, Paid: 9, PaidAt: 1},
			{Status: StatusAssigned, Task: 1, Slot: 1, Paid: 12, PaidAt: 6},
			{Status: StatusAssigned, Task: 2, Slot: 2, Paid: 12, PaidAt: 3},
			{Status: StatusAssigned, Task: 0, Slot: 1, Paid: 20, PaidAt: 3},
			{Status: StatusNone, Task: NoTask},
		},
		[]standing{{NoTask, 0, 9, true}, {1, 1, 12, true}, {2, 2, 12, true}, {0, 1, 20, true}, {NoTask, 0, 0, false}})
	if got, want := fmt.Sprint(oa.Outcome().Payments), "[0 12 12 20 0]"; got != want {
		t.Errorf("outcome payments %s, want %s", got, want)
	}
}

// TestDefaultWithoutReplacementUnserves: when no eligible bidder
// remains, the task goes unserved and is counted as unreplaced.
func TestDefaultWithoutReplacementUnserves(t *testing.T) {
	oa, err := NewOnlineAuction(2, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	oa.TrackCompletions(true)
	stepOne(t, oa, []StreamBid{{Departure: 2, Cost: 5}}, 1)
	dr, err := oa.Default(0)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Replacement != NoPhone {
		t.Fatalf("replacement %d from an empty pool", dr.Replacement)
	}
	counts := oa.CompletionCounts()
	if counts.Unreplaced != 1 || counts.Reallocated != 0 {
		t.Fatalf("counts: %+v", counts)
	}
	out := oa.Outcome()
	if out.Allocation.NumServed() != 0 {
		t.Fatalf("served %d after the only winner defaulted", out.Allocation.NumServed())
	}
}

// TestReserveRespectedOnReallocation: a standby bidder at or above the
// platform's per-task value is not drafted as a replacement unless the
// instance allocates at a loss.
func TestReserveRespectedOnReallocation(t *testing.T) {
	oa, err := NewOnlineAuction(2, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	oa.TrackCompletions(true)
	// Phone 1's cost equals ν: reserve-priced out of the re-allocation.
	stepOne(t, oa, []StreamBid{{Departure: 2, Cost: 5}, {Departure: 2, Cost: 10}}, 1)
	dr, err := oa.Default(0)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Replacement != NoPhone {
		t.Fatalf("reserve-priced phone drafted as replacement (cost 10, ν=10)")
	}

	// With AllocateAtLoss the same standby is eligible.
	loss, err := NewOnlineAuction(2, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	loss.TrackCompletions(true)
	if _, err := loss.Step([]StreamBid{{Departure: 2, Cost: 5}, {Departure: 2, Cost: 10}}, 1); err != nil {
		t.Fatal(err)
	}
	dr, err = loss.Default(0)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Replacement != 1 {
		t.Fatalf("replacement %d, want reserve-exempt phone 1", dr.Replacement)
	}
}

// TestCompletionSnapshotRoundTrip: a round with completions, defaults,
// and clawbacks snapshots and restores losslessly — statuses, issued
// payments, counters, and the outcome all survive, and the restored
// auction keeps playing identically.
func TestCompletionSnapshotRoundTrip(t *testing.T) {
	build := func() *OnlineAuction {
		oa, err := NewOnlineAuction(6, 30, false)
		if err != nil {
			t.Fatal(err)
		}
		oa.TrackCompletions(true)
		return oa
	}
	oa := build()

	// Slot 1: three bidders, two tasks. Slot 2: two more bidders, one task.
	stepOne(t, oa, []StreamBid{
		{Departure: 2, Cost: 4}, {Departure: 4, Cost: 6}, {Departure: 5, Cost: 11},
	}, 2)
	if err := oa.Complete(0); err != nil {
		t.Fatal(err)
	}
	stepOne(t, oa, []StreamBid{{Departure: 3, Cost: 8}, {Departure: 6, Cost: 9}}, 1)
	// Phone 1 defaults at clock 2: its task re-allocates.
	if _, err := oa.Default(1); err != nil {
		t.Fatal(err)
	}
	stepOne(t, oa, nil, 1) // slot 3
	// Phone 3 was paid at its slot-3 departure if it won; default 3 if
	// live, otherwise default the slot-3 winner to stir the pot.
	if st := oa.Completion(3); st.Status == StatusAssigned {
		if _, err := oa.Default(3); err != nil {
			t.Fatal(err)
		}
	}

	data, err := oa.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := RestoreOnlineAuction(data)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := re.CompletionCounts(), oa.CompletionCounts(); got != want {
		t.Fatalf("restored counts %+v, want %+v", got, want)
	}
	for i := 0; i < oa.Instance().NumPhones(); i++ {
		if got, want := re.Completion(PhoneID(i)), oa.Completion(PhoneID(i)); got != want {
			t.Fatalf("phone %d state %+v, want %+v", i, got, want)
		}
	}
	a, b := oa.Outcome(), re.Outcome()
	if a.Welfare != b.Welfare {
		t.Fatalf("welfare %g != restored %g", a.Welfare, b.Welfare)
	}
	for i := range a.Payments {
		if a.Payments[i] != b.Payments[i] {
			t.Fatalf("payment[%d] %g != restored %g", i, a.Payments[i], b.Payments[i])
		}
	}

	// Both continue identically: same steps, same default, same outcome.
	for _, x := range []*OnlineAuction{oa, re} {
		stepOne(t, x, []StreamBid{{Departure: 6, Cost: 3}}, 1)
		stepOne(t, x, nil, 0)
		stepOne(t, x, nil, 0)
	}
	a, b = oa.Outcome(), re.Outcome()
	for i := range a.Payments {
		if a.Payments[i] != b.Payments[i] {
			t.Fatalf("post-restore payment[%d] %g != %g", i, a.Payments[i], b.Payments[i])
		}
	}
	if a.Welfare != b.Welfare {
		t.Fatalf("post-restore welfare %g != %g", a.Welfare, b.Welfare)
	}
}

// TestCompletionDisabledStepAllocFree guards the satellite requirement:
// with tracking off, the lifecycle additions cost the slot path nothing.
func TestCompletionDisabledStepAllocFree(t *testing.T) {
	oa, err := NewOnlineAuction(1<<20, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	// Prime: one standing bid pool, no arrivals or payments in the
	// measured steps, reusing the caller-owned arrival slice.
	if _, err := oa.Step([]StreamBid{{Departure: 1 << 20, Cost: 5}, {Departure: 1 << 20, Cost: 7}}, 0); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := oa.Step(nil, 0); err != nil {
			t.Fatal(err)
		}
	})
	// The engine's own slot path allocates only the SlotResult.
	if avg > 1 {
		t.Fatalf("tracking-off Step allocates %.1f objects per slot", avg)
	}
}

// FuzzCompletionOrder feeds arbitrary completion-event orderings —
// complete, default, or defer, applied in fuzzer-chosen order across
// the round — to an OnlineAuction. Every rejection must be one of the
// typed lifecycle errors, and at every slot boundary a Snapshot →
// Restore round trip must reproduce Outcome() and CompletionCounts()
// bit for bit.
func FuzzCompletionOrder(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 0, 1})
	f.Add(int64(7), []byte{2, 2, 2, 1, 1, 1, 0, 0})
	f.Add(int64(42), []byte{1, 0, 2, 5, 9, 13, 77})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		in := randomInstance(rand.New(rand.NewSource(seed)), 40, 30, 20, 30)
		byArrival := make([][]StreamBid, in.Slots+1)
		for _, b := range in.Bids {
			byArrival[b.Arrival] = append(byArrival[b.Arrival], StreamBid{Departure: b.Departure, Cost: b.Cost})
		}
		tasks := in.TasksPerSlot()

		oa, err := NewOnlineAuction(in.Slots, in.Value, false)
		if err != nil {
			t.Fatal(err)
		}
		oa.TrackCompletions(true)

		next := 0
		op := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[next%len(script)]
			next++
			return b
		}
		typed := func(what string, p PhoneID, err error) {
			if err != nil && !errors.Is(err, ErrAlreadyCompleted) && !errors.Is(err, ErrNotAssigned) {
				t.Fatalf("%s(%d): untyped error %v", what, p, err)
			}
		}
		// pending holds phones assigned but not yet resolved; the script
		// may come back to them slots later, exercising out-of-order and
		// cross-slot completion events.
		var pending []PhoneID
		apply := func(p PhoneID, b byte) {
			switch b % 3 {
			case 0:
				typed("Complete", p, oa.Complete(p))
			case 1:
				d, err := oa.Default(p)
				typed("Default", p, err)
				if err == nil && d.Replacement != NoPhone {
					pending = append(pending, d.Replacement)
				}
			default: // defer: leave the assignment open for a later byte
				pending = append(pending, p)
			}
		}

		for s := Slot(1); s <= in.Slots; s++ {
			res := stepOne(t, oa, byArrival[s], tasks[s-1])
			for _, as := range res.Assignments {
				apply(as.Phone, op())
			}
			// Revisit one deferred phone per slot in fuzzer order.
			if len(pending) > 0 {
				idx := int(op()) % len(pending)
				p := pending[idx]
				pending = append(pending[:idx], pending[idx+1:]...)
				apply(p, op())
			}
			sameAfterRestore(t, oa)
		}
	})
}

// sameAfterRestore requires a Snapshot → Restore round trip of oa to
// reproduce its outcome (bitwise floats), lifecycle tallies, and every
// phone's lifecycle view.
func sameAfterRestore(t *testing.T, oa *OnlineAuction) {
	t.Helper()
	data, err := oa.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := RestoreOnlineAuction(data)
	if err != nil {
		t.Fatalf("restore at slot %d: %v", oa.Now(), err)
	}
	if got, want := re.CompletionCounts(), oa.CompletionCounts(); got != want {
		t.Fatalf("slot %d: restored counts %+v, want %+v", oa.Now(), got, want)
	}
	for i := range oa.bids {
		if got, want := re.Completion(PhoneID(i)), oa.Completion(PhoneID(i)); got != want {
			t.Fatalf("slot %d: phone %d restored state %+v, want %+v", oa.Now(), i, got, want)
		}
	}
	want, got := oa.Outcome(), re.Outcome()
	for k := range want.Allocation.ByTask {
		if want.Allocation.ByTask[k] != got.Allocation.ByTask[k] {
			t.Fatalf("slot %d: task %d restored winner %d, want %d", oa.Now(), k, got.Allocation.ByTask[k], want.Allocation.ByTask[k])
		}
	}
	for i := range want.Payments {
		if math.Float64bits(want.Payments[i]) != math.Float64bits(got.Payments[i]) {
			t.Fatalf("slot %d: phone %d restored payment %v, want %v", oa.Now(), i, got.Payments[i], want.Payments[i])
		}
	}
	if math.Float64bits(want.Welfare) != math.Float64bits(got.Welfare) {
		t.Fatalf("slot %d: restored welfare %v, want %v", oa.Now(), got.Welfare, want.Welfare)
	}
}
