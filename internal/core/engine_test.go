package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// engines returns the online mechanism and its reference. The first
// entry prices by the incremental cascade; the second replays
// Algorithm 2 per winner.
func engines() []core.Mechanism {
	return []core.Mechanism{&core.OnlineMechanism{}, core.OnlineOracle{}}
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

// TestEngineNames pins the mechanism names ablation tables key on.
func TestEngineNames(t *testing.T) {
	for _, tc := range []struct {
		mech core.Mechanism
		want string
	}{
		{&core.OnlineMechanism{}, "online-greedy"},
		{core.OnlineOracle{}, "online-greedy+oracle"},
	} {
		if got := tc.mech.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// TestOraclesRejectInvalid: the reference mechanisms reject an invalid
// instance with Validate's error, as the production mechanisms do, so a
// differential never compares an oracle's outcome on input the
// mechanism under test refused.
func TestOraclesRejectInvalid(t *testing.T) {
	valid := func() *core.Instance {
		return &core.Instance{
			Slots: 3, Value: 30,
			Bids:  []core.Bid{{Phone: 0, Arrival: 1, Departure: 2, Cost: 10}},
			Tasks: []core.Task{{ID: 0, Arrival: 1}},
		}
	}
	cases := map[string]func(in *core.Instance){
		"no slots":         func(in *core.Instance) { in.Slots = 0 },
		"negative value":   func(in *core.Instance) { in.Value = -1 },
		"phone id":         func(in *core.Instance) { in.Bids[0].Phone = 4 },
		"window":           func(in *core.Instance) { in.Bids[0].Departure = 9 },
		"task arrival":     func(in *core.Instance) { in.Tasks[0].Arrival = 4 },
		"task order":       func(in *core.Instance) { in.Tasks = []core.Task{{ID: 0, Arrival: 2}, {ID: 1, Arrival: 1}} },
		"task id sequence": func(in *core.Instance) { in.Tasks[0].ID = 1 },
	}
	mechs := []core.Mechanism{
		&core.OnlineMechanism{}, core.OnlineOracle{},
		&core.OfflineMechanism{}, core.OfflineOracle{},
	}
	for name, corrupt := range cases {
		in := valid()
		corrupt(in)
		want := in.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepted the instance", name)
		}
		for _, mech := range mechs {
			out, err := mech.Run(in)
			if err == nil || out != nil {
				t.Errorf("%s: %s returned (%v, %v), want Validate's error", name, mech.Name(), out, err)
				continue
			}
			if got := errors.Unwrap(err); got == nil || got.Error() != want.Error() {
				t.Errorf("%s: %s: error %q does not wrap Validate's %q", name, mech.Name(), err, want)
			}
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

// streamRound replays in through core.OnlineAuction slot by slot and
// returns every payment issued at a departure plus the final Outcome.
// Generated bids are in arrival order, so the stream assigns every phone
// its batch ID.
func streamRound(t *testing.T, in *core.Instance) (map[core.PhoneID]float64, *core.Outcome) {
	t.Helper()
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
	notices := make(map[core.PhoneID]float64)
	for !oa.Done() {
		res, err := oa.Step(byArrival[oa.Now()+1], tasksAt[oa.Now()+1])
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		for _, p := range res.Payments {
			notices[p.Phone] = p.Amount
		}
	}
	return notices, oa.Outcome()
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
		cascade, _ := streamRound(t, in)
		oracle, err := core.OnlineOracle{}.Run(in)
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

// TestCascadeMatchesOracleDenseSlots is the differential for long
// within-slot chains: at least 100 tasks in every slot, with bursts,
// where a task's runner-up usually wins the slot's next task, so most
// cascades run through the rest of their slot. Batch payments, the
// streaming auction's departure notices, and its Outcome must all equal
// the literal Algorithm 2 re-run bit for bit, in both reserve modes.
func TestCascadeMatchesOracleDenseSlots(t *testing.T) {
	scn := workload.HeavyScenario{
		Slots:           8,
		PhoneRate:       320,
		ZipfExponent:    1.1,
		MaxActiveLength: 8,
		MeanCost:        25,
		Value:           30,
		TaskRate:        140,
		BurstEvery:      3,
		BurstFactor:     2.5,
	}
	for _, atLoss := range []bool{false, true} {
		scn.AllocateAtLoss = atLoss
		t.Run(fmt.Sprintf("atLoss=%v", atLoss), func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				in, err := scn.Generate(seed)
				if err != nil {
					t.Fatalf("generate seed %d: %v", seed, err)
				}
				for s, n := range in.TasksPerSlot() {
					if n < 100 {
						t.Fatalf("seed %d: slot %d has %d tasks, want a dense slot (>= 100)", seed, s+1, n)
					}
				}
				ref, err := core.OnlineOracle{}.Run(in)
				if err != nil {
					t.Fatalf("oracle seed %d: %v", seed, err)
				}
				batch, err := (&core.OnlineMechanism{}).Run(in)
				if err != nil {
					t.Fatalf("cascade seed %d: %v", seed, err)
				}
				notices, stream := streamRound(t, in)
				winners := 0
				for k := range ref.Allocation.ByTask {
					if batch.Allocation.ByTask[k] != ref.Allocation.ByTask[k] || stream.Allocation.ByTask[k] != ref.Allocation.ByTask[k] {
						t.Fatalf("seed %d: task %d -> batch %d, stream %d, oracle %d", seed, k,
							batch.Allocation.ByTask[k], stream.Allocation.ByTask[k], ref.Allocation.ByTask[k])
					}
				}
				for i, want := range ref.Payments {
					p := core.PhoneID(i)
					if batch.Payments[i] != want || stream.Payments[i] != want {
						t.Fatalf("seed %d: phone %d paid batch %v, stream outcome %v, oracle %v",
							seed, i, batch.Payments[i], stream.Payments[i], want)
					}
					if ref.Allocation.ByPhone[i] == core.NoTask {
						continue
					}
					winners++
					if amt, ok := notices[p]; !ok || amt != want {
						t.Fatalf("seed %d: phone %d notice %v (issued %v), oracle %v", seed, i, amt, ok, want)
					}
				}
				if len(notices) != winners {
					t.Fatalf("seed %d: %d departure notices for %d winners", seed, len(notices), winners)
				}
				if testing.Verbose() {
					t.Logf("seed %d: %d tasks over %d slots, %d winners", seed, len(in.Tasks), in.Slots, winners)
				}
			}
		})
	}
}
