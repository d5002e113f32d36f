package core

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzMechanismInvariants generates a random instance from the fuzzed
// seed and checks every cross-mechanism invariant at once:
//
//  1. both allocations are feasible,
//  2. offline welfare ≥ online welfare ≥ offline/2,
//  3. losers are paid zero, winners at least their bid,
//  4. truthful utilities are non-negative,
//  5. reported welfare matches the allocation.
func FuzzMechanismInvariants(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 12, 12, 8, 50)
		in.AllocateAtLoss = seed%5 == 0

		on, err := (&OnlineMechanism{}).Run(in)
		if err != nil {
			t.Fatalf("online: %v", err)
		}
		off, err := (&OfflineMechanism{}).Run(in)
		if err != nil {
			t.Fatalf("offline: %v", err)
		}
		for name, out := range map[string]*Outcome{"online": on, "offline": off} {
			if err := out.Allocation.Validate(in); err != nil {
				t.Fatalf("%s allocation: %v", name, err)
			}
			if math.Abs(out.Welfare-out.Allocation.Welfare(in)) > 1e-9 {
				t.Fatalf("%s welfare mismatch", name)
			}
			for i, task := range out.Allocation.ByPhone {
				if task == NoTask {
					if out.Payments[i] != 0 {
						t.Fatalf("%s: loser %d paid %g", name, i, out.Payments[i])
					}
					continue
				}
				if out.Payments[i] < in.Bids[i].Cost-1e-9 {
					t.Fatalf("%s: winner %d paid %g < bid %g", name, i, out.Payments[i], in.Bids[i].Cost)
				}
				if u := out.Utility(PhoneID(i), in.Bids[i].Cost); u < -1e-9 {
					t.Fatalf("%s: winner %d negative utility %g", name, i, u)
				}
			}
		}
		if !in.AllocateAtLoss {
			if off.Welfare < on.Welfare-1e-9 {
				t.Fatalf("offline %g < online %g", off.Welfare, on.Welfare)
			}
			if on.Welfare < off.Welfare/2-1e-9 {
				t.Fatalf("competitive ratio violated: %g < %g/2", on.Welfare, off.Welfare)
			}
		}
	})
}

// FuzzCriticalPayments differentially tests the incremental cascade
// payment engine against the literal Algorithm 2 per-winner re-run on fuzz-seeded instances, demanding
// bit-identical payments — the engines take maxima over the same stored
// floats, so exact equality is the specification, not a tolerance.
func FuzzCriticalPayments(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(2))
	f.Add(int64(-13))
	f.Add(int64(777))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 14, 14, 8, 50)
		in.AllocateAtLoss = seed%2 == 0

		ref, err := (&OnlineMechanism{Payments: OraclePayments}).Run(in)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		out, err := (&OnlineMechanism{Payments: CascadePayments}).Run(in)
		if err != nil {
			t.Fatalf("cascade: %v", err)
		}
		for i := range ref.Payments {
			if out.Payments[i] != ref.Payments[i] {
				t.Fatalf("cascade: phone %d paid %v, oracle %v (atLoss=%v)",
					i, out.Payments[i], ref.Payments[i], in.AllocateAtLoss)
			}
		}
	})
}

// FuzzStreamEquivalence replays fuzz-seeded instances through the
// streaming driver and checks it matches the batch mechanism.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add(int64(3))
	f.Add(int64(99))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 10, 10, 6, 40)
		batch, err := (&OnlineMechanism{}).Run(in)
		if err != nil {
			t.Fatal(err)
		}
		oa, err := NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
		if err != nil {
			t.Fatal(err)
		}
		perSlot := in.TasksPerSlot()
		bi := 0
		for s := Slot(1); s <= in.Slots; s++ {
			var arriving []StreamBid
			for ; bi < len(in.Bids) && in.Bids[bi].Arrival == s; bi++ {
				arriving = append(arriving, StreamBid{Departure: in.Bids[bi].Departure, Cost: in.Bids[bi].Cost})
			}
			if _, err := oa.Step(arriving, perSlot[s-1]); err != nil {
				t.Fatal(err)
			}
		}
		stream := oa.Outcome()
		if math.Abs(stream.Welfare-batch.Welfare) > 1e-9 {
			t.Fatalf("stream welfare %g != batch %g", stream.Welfare, batch.Welfare)
		}
		for i := range batch.Payments {
			if math.Abs(stream.Payments[i]-batch.Payments[i]) > 1e-9 {
				t.Fatalf("payment[%d]: %g != %g", i, stream.Payments[i], batch.Payments[i])
			}
		}
	})
}
