package core_test

import (
	"fmt"
	"sync"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// engines returns the mechanism under every payment engine. The first
// entry is the incremental cascade default; the second replays
// Algorithm 2.
func engines() []*core.OnlineMechanism {
	return []*core.OnlineMechanism{
		{},
		{Payments: core.OraclePayments},
	}
}

// TestCascadeMatchesOracleSweep is the differential acceptance gate: on
// 200+ seeded rounds spanning scarcity regimes and both reserve-price
// modes, every engine must produce bit-identical payments (and identical
// allocations) to the literal per-winner Algorithm 2 re-run.
func TestCascadeMatchesOracleSweep(t *testing.T) {
	mechs := engines()
	rounds := 0
	for _, slots := range []core.Slot{25, 50} {
		for _, phoneRate := range []float64{2, 6} {
			for _, taskRate := range []float64{3, 6} {
				for _, atLoss := range []bool{false, true} {
					scn := workload.DefaultScenario()
					scn.Slots = slots
					scn.PhoneRate = phoneRate
					scn.TaskRate = taskRate
					scn.AllocateAtLoss = atLoss
					name := fmt.Sprintf("m=%d/phones=%g/tasks=%g/atLoss=%v", slots, phoneRate, taskRate, atLoss)
					t.Run(name, func(t *testing.T) {
						for seed := uint64(1); seed <= 13; seed++ {
							in, err := scn.Generate(seed)
							if err != nil {
								t.Fatalf("generate seed %d: %v", seed, err)
							}
							ref, err := mechs[1].Run(in) // oracle
							if err != nil {
								t.Fatalf("oracle seed %d: %v", seed, err)
							}
							for _, mech := range mechs {
								out, err := mech.Run(in)
								if err != nil {
									t.Fatalf("%s seed %d: %v", mech.Name(), seed, err)
								}
								if out.Welfare != ref.Welfare {
									t.Fatalf("%s seed %d: welfare %g, oracle %g", mech.Name(), seed, out.Welfare, ref.Welfare)
								}
								for i := range ref.Payments {
									if out.Payments[i] != ref.Payments[i] {
										t.Fatalf("%s seed %d: phone %d paid %v, oracle %v",
											mech.Name(), seed, i, out.Payments[i], ref.Payments[i])
									}
								}
								for k := range ref.Allocation.ByTask {
									if out.Allocation.ByTask[k] != ref.Allocation.ByTask[k] {
										t.Fatalf("%s seed %d: task %d -> %d, oracle %d",
											mech.Name(), seed, k, out.Allocation.ByTask[k], ref.Allocation.ByTask[k])
									}
								}
							}
							rounds++
						}
					})
				}
			}
		}
	}
	if testing.Verbose() {
		t.Logf("compared %d rounds across %d engines", rounds, len(mechs))
	}
}

// TestPivotalWinnerPaysReserve: a winner whose removal leaves a task
// unserved is pivotal, and its critical value is the reserve ν.
func TestPivotalWinnerPaysReserve(t *testing.T) {
	in := &core.Instance{
		Slots: 3,
		Value: 30,
		Bids: []core.Bid{
			{Phone: 0, Arrival: 1, Departure: 2, Cost: 10},
		},
		Tasks: []core.Task{{ID: 0, Arrival: 1}},
	}
	for _, mech := range engines() {
		out, err := mech.Run(in)
		if err != nil {
			t.Fatalf("%s: %v", mech.Name(), err)
		}
		if out.Payments[0] != 30 {
			t.Errorf("%s: pivotal winner paid %v, want reserve 30", mech.Name(), out.Payments[0])
		}
	}
}

// TestAtLossReserveUndercutsMax pins the AllocateAtLoss corner where a
// pivotal slot's reserve candidate ν is LOWER than the slot's remaining
// winner cost: Algorithm 2 prices an unserved slot at ν outright, it
// does not take a max with the surviving winners. Both phones win at a
// loss; removing either leaves one task unserved, so each one's slot
// candidate is ν=30 — below the other's cost — and the payment falls
// back to the winner's own bid.
func TestAtLossReserveUndercutsMax(t *testing.T) {
	in := &core.Instance{
		Slots: 2,
		Value: 30,
		Bids: []core.Bid{
			{Phone: 0, Arrival: 1, Departure: 1, Cost: 50},
			{Phone: 1, Arrival: 1, Departure: 1, Cost: 40},
		},
		Tasks:          []core.Task{{ID: 0, Arrival: 1}, {ID: 1, Arrival: 1}},
		AllocateAtLoss: true,
	}
	for _, mech := range engines() {
		out, err := mech.Run(in)
		if err != nil {
			t.Fatalf("%s: %v", mech.Name(), err)
		}
		if out.Payments[0] != 50 || out.Payments[1] != 40 {
			t.Errorf("%s: payments %v, want [50 40]", mech.Name(), out.Payments)
		}
	}
}

// TestEngineNames pins the mechanism naming scheme ablation tables key on.
func TestEngineNames(t *testing.T) {
	want := map[string]string{
		"":        "online-greedy",
		"cascade": "online-greedy+cascade",
		"oracle":  "online-greedy+oracle",
	}
	for _, mech := range []*core.OnlineMechanism{
		{},
		{Payments: core.CascadePayments},
		{Payments: core.OraclePayments},
	} {
		key := ""
		if mech.Payments != nil {
			key = mech.Payments.Name()
		}
		if got := mech.Name(); got != want[key] {
			t.Errorf("Name() = %q, want %q", got, want[key])
		}
	}
}

// TestMechanismConcurrentUse hammers shared mechanism values from many
// goroutines (the sim package does exactly this), exercising the pooled
// scratch reuse under the race detector.
func TestMechanismConcurrentUse(t *testing.T) {
	scn := workload.DefaultScenario()
	scn.Slots = 25
	mechs := engines()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seed := uint64(1); seed <= 8; seed++ {
				in, err := scn.Generate(seed)
				if err != nil {
					errs <- err
					return
				}
				ref, err := mechs[1].Run(in)
				if err != nil {
					errs <- err
					return
				}
				mech := mechs[g%len(mechs)]
				out, err := mech.Run(in)
				if err != nil {
					errs <- err
					return
				}
				for i := range ref.Payments {
					if out.Payments[i] != ref.Payments[i] {
						errs <- fmt.Errorf("%s seed %d: phone %d paid %v, oracle %v",
							mech.Name(), seed, i, out.Payments[i], ref.Payments[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamEnginesAgree drives the streaming auction over each input
// and checks every payment finalized at a departure against the batch
// oracle's — the streaming cascade prices from retained state at the
// departure slot while the oracle replays the whole round, so this
// crosses the two pricing paths at every departure.
func TestStreamEnginesAgree(t *testing.T) {
	scn := workload.DefaultScenario()
	scn.Slots = 30
	for seed := uint64(1); seed <= 5; seed++ {
		in, err := scn.Generate(seed)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		byArrival := make(map[core.Slot][]core.StreamBid)
		for _, b := range in.Bids {
			byArrival[b.Arrival] = append(byArrival[b.Arrival], core.StreamBid{Departure: b.Departure, Cost: b.Cost})
		}
		tasksAt := make(map[core.Slot]int)
		for _, task := range in.Tasks {
			tasksAt[task.Arrival]++
		}
		oa, err := core.NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
		if err != nil {
			t.Fatalf("auction: %v", err)
		}
		cascade := make(map[core.PhoneID]float64)
		for !oa.Done() {
			res, err := oa.Step(byArrival[oa.Now()+1], tasksAt[oa.Now()+1])
			if err != nil {
				t.Fatalf("step: %v", err)
			}
			for _, p := range res.Payments {
				cascade[p.Phone] = p.Amount
			}
		}
		// Generated bids are in arrival order, so the stream assigns
		// every phone its batch ID.
		oracle, err := (&core.OnlineMechanism{Payments: core.OraclePayments}).Run(in)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		winners := 0
		for p, k := range oracle.Allocation.ByPhone {
			if k == core.NoTask {
				continue
			}
			winners++
			if amt, ok := cascade[core.PhoneID(p)]; !ok || amt != oracle.Payments[p] {
				t.Fatalf("seed %d: phone %d stream paid %v (issued %v), oracle %v", seed, p, amt, ok, oracle.Payments[p])
			}
		}
		if len(cascade) != winners {
			t.Fatalf("seed %d: stream paid %d phones, oracle %d winners", seed, len(cascade), winners)
		}
	}
}
