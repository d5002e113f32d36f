package budget

import (
	"fmt"
	"math"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// replayWins is the reference probe the resumed replays of winsWithBid
// are held to: it re-runs the round a observed through slot until in a
// fresh allocation-only auction, from slot 1, with phone i's reported
// cost replaced by b, and reports whether i wins a task.
func replayWins(a *Auction, i core.PhoneID, b float64, until core.Slot) bool {
	cf, err := New(a.ledger.Slots(), a.ledger.Value(), a.ledger.AllocateAtLoss(), a.budget, a.eng)
	if err != nil {
		return false
	}
	cf.replay = true
	in := a.ledger.Instance()
	in.Bids[i].Cost = b
	if err := core.StepThrough(cf, in, until, nil); err != nil {
		return false
	}
	return cf.ledger.WonAt(i) != 0
}

// checkAgainstReplay prices every winner of the finished round a twice —
// with the resumed probes and with replayWins — and fails unless every
// probe agrees and both payments equal the one a settled (or reports),
// bit for bit. Besides the search's own probes it compares the reports
// 0, the bid, just above it, and ν (a reserve-priced report is refused
// at admission). It returns the number of probes compared.
func checkAgainstReplay(t *testing.T, a *Auction, label string) int {
	t.Helper()
	out := a.Outcome()
	probes := 0
	for p := range out.Payments {
		i := core.PhoneID(p)
		if a.ledger.WonAt(i) == 0 {
			continue
		}
		until := a.pricedThrough(i)
		compare := func(b float64) bool {
			probes++
			got, want := a.winsWithBid(i, b, until), replayWins(a, i, b, until)
			if got != want {
				t.Fatalf("%s: phone %d bid %v: resumed probe wins=%v, replay wins=%v", label, i, b, got, want)
			}
			return got
		}
		bid := a.ledger.Bids()[i].Cost
		for _, b := range []float64{0, bid, math.Nextafter(bid, math.Inf(1)), a.ledger.Value()} {
			compare(b)
		}
		fast := a.searchCritical(i, compare)
		oracle := a.searchCritical(i, func(b float64) bool { return replayWins(a, i, b, until) })
		if math.Float64bits(fast) != math.Float64bits(oracle) || math.Float64bits(out.Payments[p]) != math.Float64bits(oracle) {
			t.Fatalf("%s: phone %d paid %v, resumed search %v, replay search %v", label, i, out.Payments[p], fast, oracle)
		}
	}
	return probes
}

// TestResumedProbesMatchReplay is the differential gate on the pricing
// fast path: across 200 small seeded rounds and 3 Table I rounds × both
// engines × a binding and a loose budget — live rounds, and rounds
// restored from a mid-stage snapshot and finished after it — every
// probe of the resumed replay gives the same answer as a fresh replay
// from slot 1, and every payment is bit-identical to the one the fresh
// replays price.
func TestResumedProbesMatchReplay(t *testing.T) {
	small := workload.DefaultScenario()
	small.Slots = 20
	small.PhoneRate = 3
	small.TaskRate = 2
	scenarios := []struct {
		scn   workload.Scenario
		seeds uint64
		cut   core.Slot // mid-stage snapshot slot
	}{
		{small, 200, 7},                     // m = 20: stages end 1,2,3,5,10,20
		{workload.DefaultScenario(), 3, 19}, // m = 50: stages end 1,2,4,7,13,25,50
	}
	probes := 0
	for _, sc := range scenarios {
		seeds := sc.seeds
		if testing.Short() || raceEnabled {
			seeds = (seeds + 9) / 10
		}
		for _, eng := range []Engine{StageSampling{}, Frugal{}} {
			for _, budget := range []float64{200, 2000} {
				for seed := uint64(1); seed <= seeds; seed++ {
					in, err := sc.scn.Generate(seed)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("m=%d %s B=%g seed %d", in.Slots, eng.Name(), budget, seed)
					live := driveTo(t, in, budget, eng, in.Slots)
					probes += checkAgainstReplay(t, live, label+" live")
					if seed%4 != 1 {
						continue
					}
					snap, err := driveTo(t, in, budget, eng, sc.cut).Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					restored, err := Restore(snap)
					if err != nil {
						t.Fatal(err)
					}
					finish(t, restored, in)
					probes += checkAgainstReplay(t, restored, label+" restored")
				}
			}
		}
	}
	t.Logf("%d probes compared", probes)
}

// TestPaymentIsBisectedCriticalValue pins that the candidate grid holds
// every win/lose boundary: on 100 seeded rounds × both engines × a
// binding and a loose budget, each winner is paid min(cap, b*), where
// b* is the boundary a 60-step bisection between its own bid and its
// cap finds with the reference replay.
func TestPaymentIsBisectedCriticalValue(t *testing.T) {
	scn := workload.DefaultScenario()
	scn.Slots = 20
	scn.PhoneRate = 3
	scn.TaskRate = 2
	seeds := uint64(100)
	if testing.Short() || raceEnabled {
		seeds = 10
	}
	for _, eng := range []Engine{StageSampling{}, Frugal{}} {
		for _, budget := range []float64{200, 2000} {
			for seed := uint64(1); seed <= seeds; seed++ {
				in, err := scn.Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				a := driveTo(t, in, budget, eng, in.Slots)
				out := a.Outcome()
				for p, pay := range out.Payments {
					i := core.PhoneID(p)
					if a.ledger.WonAt(i) == 0 {
						continue
					}
					until, cap := a.pricedThrough(i), a.capAt[i]
					want := cap
					if !replayWins(a, i, cap, until) {
						lo, hi := in.Bids[p].Cost, cap
						for step := 0; step < 60; step++ {
							mid := (lo + hi) / 2
							if replayWins(a, i, mid, until) {
								lo = mid
							} else {
								hi = mid
							}
						}
						want = hi
					}
					if math.Abs(pay-want) > 1e-9 {
						t.Errorf("%s B=%g seed %d: phone %d (bid %v, cap %v) paid %v, bisected critical value %v",
							eng.Name(), budget, seed, i, in.Bids[p].Cost, cap, pay, want)
					}
				}
			}
		}
	}
}
