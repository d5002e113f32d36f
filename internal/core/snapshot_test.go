package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// driveSlots advances an auction through instance slots [from, to].
func driveSlots(t *testing.T, oa *OnlineAuction, in *Instance, from, to Slot) {
	t.Helper()
	if oa.Now() != from-1 {
		t.Fatalf("auction at slot %d, want %d", oa.Now(), from-1)
	}
	if err := StepThrough(oa, in, to, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotResumeMatchesUninterrupted: checkpoint mid-round, restore,
// finish — outcome identical to never having stopped.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 14, 14, 10, 50)
		if in.Slots < 2 {
			continue
		}
		cut := Slot(1 + rng.Intn(int(in.Slots-1)))

		whole, err := NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
		if err != nil {
			t.Fatal(err)
		}
		driveSlots(t, whole, in, 1, in.Slots)

		first, err := NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
		if err != nil {
			t.Fatal(err)
		}
		driveSlots(t, first, in, 1, cut)
		data, err := first.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := RestoreOnlineAuction(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if resumed.Now() != cut {
			t.Fatalf("restored clock %d, want %d", resumed.Now(), cut)
		}
		driveSlots(t, resumed, in, cut+1, in.Slots)

		a, b := whole.Outcome(), resumed.Outcome()
		if math.Abs(a.Welfare-b.Welfare) > 1e-9 {
			t.Fatalf("trial %d (cut %d): welfare %g != %g", trial, cut, a.Welfare, b.Welfare)
		}
		for i := range a.Payments {
			if math.Abs(a.Payments[i]-b.Payments[i]) > 1e-9 {
				t.Fatalf("trial %d (cut %d): payment[%d] %g != %g", trial, cut, i, a.Payments[i], b.Payments[i])
			}
		}
		for k := range a.Allocation.ByTask {
			if a.Allocation.ByTask[k] != b.Allocation.ByTask[k] {
				t.Fatalf("trial %d (cut %d): task %d differs", trial, cut, k)
			}
		}
	}
}

func TestSnapshotAtRoundBoundaries(t *testing.T) {
	oa, err := NewOnlineAuction(3, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot before any step.
	data, err := oa.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RestoreOnlineAuction(data)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Now() != 0 || fresh.Done() {
		t.Fatal("fresh restore wrong state")
	}
	// Snapshot after the final slot.
	for !oa.Done() {
		if _, err := oa.Step(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	data, err = oa.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	done, err := RestoreOnlineAuction(data)
	if err != nil {
		t.Fatal(err)
	}
	if !done.Done() {
		t.Fatal("finished round restored as unfinished")
	}
	if _, err := done.Step(nil, 0); err == nil {
		t.Fatal("restored finished round accepted a step")
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	oa, _ := NewOnlineAuction(5, 10, false)
	if _, err := oa.Step([]StreamBid{{Departure: 3, Cost: 2}}, 1); err != nil {
		t.Fatal(err)
	}
	good, err := oa.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(f func(map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := map[string][]byte{
		"not json":      []byte("{nope"),
		"wrong version": corrupt(func(m map[string]any) { m["version"] = 99 }),
		"bad clock":     corrupt(func(m map[string]any) { m["now"] = 9 }),
		"future bid": corrupt(func(m map[string]any) {
			bids := m["bids"].([]any)
			bids[0].(map[string]any)["Arrival"] = 4
		}),
		"task after clock": corrupt(func(m map[string]any) { m["taskArrivals"] = []any{5.0} }),
		"size mismatch":    corrupt(func(m map[string]any) { m["wonAt"] = []any{} }),
		"bad assignment": corrupt(func(m map[string]any) {
			m["byTask"] = []any{7.0}
		}),
	}
	for name, data := range cases {
		if _, err := RestoreOnlineAuction(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

// TestSnapshotRoundTripStable: snapshot -> restore -> snapshot yields
// an equivalent document.
func TestSnapshotRoundTripStable(t *testing.T) {
	oa, _ := NewOnlineAuction(6, 20, false)
	if _, err := oa.Step([]StreamBid{{Departure: 4, Cost: 3}, {Departure: 6, Cost: 8}}, 1); err != nil {
		t.Fatal(err)
	}
	a, err := oa.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnlineAuction(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("snapshot changed across restore:\n%s\n%s", a, b)
	}
}
