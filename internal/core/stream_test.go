package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynacrowd/internal/obs"
)

// replayStream drives an OnlineAuction through a batch instance,
// delivering each bid in its arrival slot. Stream PhoneIDs are assigned
// in delivery order, which may differ from the instance's numbering; the
// returned perm maps stream ID -> original PhoneID. (Greedy tiebreaks use
// IDs, so equivalence tests rely on instances with distinct costs.)
func replayStream(t *testing.T, in *Instance) (*OnlineAuction, []*SlotResult, []PhoneID) {
	t.Helper()
	oa, err := NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
	if err != nil {
		t.Fatal(err)
	}
	byArrival := make([][]int, in.Slots+1)
	for i, b := range in.Bids {
		byArrival[b.Arrival] = append(byArrival[b.Arrival], i)
	}
	perSlot := in.TasksPerSlot()
	var results []*SlotResult
	var perm []PhoneID
	for s := Slot(1); s <= in.Slots; s++ {
		var arriving []StreamBid
		for _, i := range byArrival[s] {
			arriving = append(arriving, StreamBid{Departure: in.Bids[i].Departure, Cost: in.Bids[i].Cost})
			perm = append(perm, PhoneID(i))
		}
		res, err := oa.Step(arriving, perSlot[s-1])
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		results = append(results, res)
	}
	return oa, results, perm
}

func TestNewOnlineAuctionValidation(t *testing.T) {
	if _, err := NewOnlineAuction(0, 10, false); err == nil {
		t.Fatal("want error for zero slots")
	}
	if _, err := NewOnlineAuction(5, -1, false); err == nil {
		t.Fatal("want error for negative value")
	}
	// The departure lists and the pool store slots as int32.
	m := Slot(math.MaxInt32)
	m++
	if _, err := NewOnlineAuction(m, 10, false); err == nil {
		t.Fatal("want error for a round longer than math.MaxInt32 slots")
	}
}

func TestOnlineAuctionStepErrors(t *testing.T) {
	oa, err := NewOnlineAuction(1, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oa.Step(nil, -1); err == nil {
		t.Fatal("want error for negative task count")
	}
	// A failed Step must not consume the slot or register state.
	if oa.Now() != 0 {
		t.Fatalf("failed Step advanced the clock to %d", oa.Now())
	}
	for !oa.Done() {
		if _, err := oa.Step(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := oa.Step(nil, 0); err == nil {
		t.Fatal("want error stepping past the round end")
	}
	if _, err := oa.Step([]StreamBid{{Departure: 99, Cost: 1}}, 0); err == nil {
		t.Fatal("want error for bid departing after round end")
	}
}

func TestOnlineAuctionRejectsBadBid(t *testing.T) {
	oa, _ := NewOnlineAuction(5, 10, false)
	if _, err := oa.Step([]StreamBid{{Departure: 3, Cost: -1}}, 0); err == nil {
		t.Fatal("want error for negative cost")
	}
}

// TestStreamMatchesBatchPaper: the streaming driver reproduces the batch
// online outcome on the paper instance, including payment timing.
func TestStreamMatchesBatchPaper(t *testing.T) {
	in := paperInstance()
	batch := mustRun(t, &OnlineMechanism{}, in)
	oa, results, perm := replayStream(t, in)

	streamOut := oa.Outcome()
	if math.Abs(streamOut.Welfare-batch.Welfare) > 1e-9 {
		t.Fatalf("stream welfare %g != batch %g", streamOut.Welfare, batch.Welfare)
	}
	for sid := range streamOut.Payments {
		orig := perm[sid]
		if math.Abs(streamOut.Payments[sid]-batch.Payments[orig]) > 1e-9 {
			t.Fatalf("payment[stream %d = phone %d]: stream %g != batch %g",
				sid, orig, streamOut.Payments[sid], batch.Payments[orig])
		}
	}

	// Payments must be issued exactly in each winner's departure slot.
	paid := make(map[PhoneID]Slot) // keyed by original PhoneID
	for _, res := range results {
		for _, p := range res.Payments {
			paid[perm[p.Phone]] = res.Slot
		}
	}
	for _, i := range batch.Allocation.Winners() {
		if paid[i] != in.Bids[i].Departure {
			t.Fatalf("phone %d paid in slot %d, want departure slot %d", i, paid[i], in.Bids[i].Departure)
		}
	}
}

// TestStreamMatchesBatchRandom: full equivalence on random instances.
func TestStreamMatchesBatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	on := &OnlineMechanism{}
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 12, 12, 8, 50)
		in.AllocateAtLoss = trial%3 == 0
		batch := mustRun(t, on, in)
		oa, _, _ := replayStream(t, in)
		stream := oa.Outcome()

		if math.Abs(stream.Welfare-batch.Welfare) > 1e-9 {
			t.Fatalf("trial %d: welfare %g != %g", trial, stream.Welfare, batch.Welfare)
		}
		for i := range batch.Payments {
			if math.Abs(stream.Payments[i]-batch.Payments[i]) > 1e-9 {
				t.Fatalf("trial %d: payment[%d] %g != %g", trial, i, stream.Payments[i], batch.Payments[i])
			}
		}
		for k := range batch.Allocation.ByTask {
			if stream.Allocation.ByTask[k] != batch.Allocation.ByTask[k] {
				t.Fatalf("trial %d: task %d assigned to %d (stream) vs %d (batch)",
					trial, k, stream.Allocation.ByTask[k], batch.Allocation.ByTask[k])
			}
		}
	}
}

// TestStreamPaymentTotalsMatchOutcome: the sum of PaymentNotices over the
// round equals the outcome's winner payments.
func TestStreamPaymentTotalsMatchOutcome(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 10, 10, 8, 50)
		oa, results, _ := replayStream(t, in)
		var noticed float64
		for _, res := range results {
			for _, p := range res.Payments {
				noticed += p.Amount
			}
		}
		if out := oa.Outcome(); math.Abs(noticed-out.TotalPayment()) > 1e-9 {
			t.Fatalf("trial %d: notices %g != outcome total %g", trial, noticed, out.TotalPayment())
		}
	}
}

// TestOutcomeSettlesOnce: Step records every amount it issues, so
// Outcome prices only the winners that have not departed yet. A
// mid-round Outcome runs one cascade walk per undeparted winner, and
// Outcome after the last Step runs none; payments stay bit-identical to
// OnlineMechanism.Run.
func TestOutcomeSettlesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 30, 30, 10, 50)
		in.AllocateAtLoss = trial%3 == 0
		want := mustRun(t, &OnlineMechanism{}, in)
		m := NewMetrics(obs.NewRegistry())
		oa, err := NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
		if err != nil {
			t.Fatal(err)
		}
		oa.SetMetrics(m)
		mid := Slot(1 + rng.Intn(int(in.Slots)))
		err = StepThrough(oa, in, in.Slots, func(res *SlotResult) error {
			if res.Slot != mid {
				return nil
			}
			undeparted := 0
			for i, task := range oa.run.phoneTask {
				if task != NoTask && oa.bids[i].Departure > mid {
					undeparted++
				}
			}
			before := m.CascadeCalls.Value()
			oa.Outcome()
			if got := m.CascadeCalls.Value() - before; got != uint64(undeparted) {
				return fmt.Errorf("mid-round Outcome priced %d winners, %d undeparted", got, undeparted)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		before := m.CascadeCalls.Value()
		got := oa.Outcome()
		if calls := m.CascadeCalls.Value() - before; calls != 0 {
			t.Fatalf("trial %d: Outcome after the last Step priced %d winners", trial, calls)
		}
		for k := range want.Allocation.ByTask {
			if got.Allocation.ByTask[k] != want.Allocation.ByTask[k] {
				t.Fatalf("trial %d: task %d -> %d, batch %d", trial, k, got.Allocation.ByTask[k], want.Allocation.ByTask[k])
			}
		}
		for i := range want.Payments {
			if math.Float64bits(got.Payments[i]) != math.Float64bits(want.Payments[i]) {
				t.Fatalf("trial %d: phone %d paid %v, batch %v", trial, i, got.Payments[i], want.Payments[i])
			}
		}
	}
}

// TestStreamInstanceSnapshot: the accumulated instance round-trips
// through the batch mechanism to the same outcome.
func TestStreamInstanceSnapshot(t *testing.T) {
	in := paperInstance()
	oa, _, _ := replayStream(t, in)
	snap := oa.Instance()
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	if len(snap.Bids) != len(in.Bids) || len(snap.Tasks) != len(in.Tasks) {
		t.Fatalf("snapshot sizes %d/%d, want %d/%d", len(snap.Bids), len(snap.Tasks), len(in.Bids), len(in.Tasks))
	}
	batch := mustRun(t, &OnlineMechanism{}, snap)
	if batch.Welfare != oa.Outcome().Welfare {
		t.Fatal("snapshot does not reproduce the stream outcome")
	}
}

// TestStreamJoinedIDsDense: stream-assigned IDs are dense and ordered.
func TestStreamJoinedIDsDense(t *testing.T) {
	oa, _ := NewOnlineAuction(3, 10, false)
	res, err := oa.Step([]StreamBid{{Departure: 2, Cost: 1}, {Departure: 3, Cost: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Joined) != 2 || res.Joined[0] != 0 || res.Joined[1] != 1 {
		t.Fatalf("Joined = %v, want [0 1]", res.Joined)
	}
	res2, err := oa.Step([]StreamBid{{Departure: 3, Cost: 3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Joined) != 1 || res2.Joined[0] != 2 {
		t.Fatalf("Joined = %v, want [2]", res2.Joined)
	}
}

// TestStreamUnservedReported: tasks with no available phone are counted.
func TestStreamUnservedReported(t *testing.T) {
	oa, _ := NewOnlineAuction(2, 10, false)
	res, err := oa.Step(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unserved != 2 {
		t.Fatalf("Unserved = %d, want 2", res.Unserved)
	}
}
