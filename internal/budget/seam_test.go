package budget

import (
	"reflect"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// TestAuctionSeam holds both engines behind core.Auction to one
// contract: Bid(id) reads exactly what Instance() copies and refuses the
// next unadmitted ID, a mid-round Snapshot→Restore keeps Now and
// Outcome, and Step fails once the round is done.
func TestAuctionSeam(t *testing.T) {
	in, err := workload.DefaultScenario().Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name    string
		fresh   func() (core.Auction, error)
		restore func([]byte) (core.Auction, error)
	}{
		{
			"online",
			func() (core.Auction, error) { return core.NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss) },
			func(b []byte) (core.Auction, error) { return core.RestoreOnlineAuction(b) },
		},
		{
			"budget",
			func() (core.Auction, error) { return New(in.Slots, in.Value, in.AllocateAtLoss, 60, nil) },
			func(b []byte) (core.Auction, error) { return Restore(b) },
		},
	}
	byArrival := make([][]core.StreamBid, in.Slots+1)
	for _, b := range in.Bids {
		byArrival[b.Arrival] = append(byArrival[b.Arrival], core.StreamBid{Departure: b.Departure, Cost: b.Cost})
	}
	perSlot := in.TasksPerSlot()
	mid := in.Slots / 2

	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			a, err := eng.fresh()
			if err != nil {
				t.Fatal(err)
			}
			for slot := core.Slot(1); slot <= in.Slots; slot++ {
				if _, err := a.Step(byArrival[slot], perSlot[slot-1]); err != nil {
					t.Fatal(err)
				}
				inst := a.Instance()
				for id := range inst.Bids {
					if b, ok := a.Bid(core.PhoneID(id)); !ok || b != inst.Bids[id] {
						t.Fatalf("slot %d: Bid(%d) = %+v, %v; Instance has %+v", slot, id, b, ok, inst.Bids[id])
					}
				}
				for _, id := range []core.PhoneID{core.PhoneID(len(inst.Bids)), -1} {
					if _, ok := a.Bid(id); ok {
						t.Fatalf("slot %d: Bid(%d) ok with %d phones admitted", slot, id, len(inst.Bids))
					}
				}
				if slot != mid {
					continue
				}
				snap, err := a.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				r, err := eng.restore(snap)
				if err != nil {
					t.Fatal(err)
				}
				if r.Now() != a.Now() {
					t.Fatalf("restored Now %d, want %d", r.Now(), a.Now())
				}
				if got, want := r.Outcome(), a.Outcome(); !reflect.DeepEqual(got, want) {
					t.Fatalf("restored Outcome differs:\n got %+v\nwant %+v", got, want)
				}
			}
			if !a.Done() {
				t.Fatal("not Done after the last slot")
			}
			if _, err := a.Step(nil, 0); err == nil {
				t.Fatal("Step after Done succeeded")
			}
			if a.Outcome().Allocation.NumServed() == 0 {
				t.Fatal("round served no task; the seam checks compared empty outcomes")
			}
		})
	}
}
