package budget

import (
	"fmt"
	"math"
	"slices"
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
	var winners []core.PhoneID
	for p := range a.ledger.NumPhones() {
		if i := core.PhoneID(p); a.ledger.WonAt(i) != 0 {
			winners = append(winners, i)
		}
	}
	return checkWinners(t, a, label, winners, nil)
}

// checkWinners is checkAgainstReplay over the given winners, priced in
// the order given. Before each resumed probe it calls observe, if
// non-nil, with the probed phone.
func checkWinners(t *testing.T, a *Auction, label string, winners []core.PhoneID, observe func(core.PhoneID)) int {
	t.Helper()
	out := a.Outcome()
	probes := 0
	for _, i := range winners {
		until := a.pricedThrough(i)
		compare := func(b float64) bool {
			probes++
			if observe != nil {
				observe(i)
			}
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
		if math.Float64bits(fast) != math.Float64bits(oracle) || math.Float64bits(out.Payments[i]) != math.Float64bits(oracle) {
			t.Fatalf("%s: phone %d paid %v, resumed search %v, replay search %v", label, i, out.Payments[i], fast, oracle)
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

// TestProbesOutOfArrivalOrder prices the winners of finished Table I
// rounds in descending and in shuffled arrival order, so the prefix is
// often rewound to an earlier slot than the one it holds. Every probe
// must match replayWins and every payment the settled one, and such
// backward rewinds must occur.
func TestProbesOutOfArrivalOrder(t *testing.T) {
	seeds := uint64(6)
	if testing.Short() || raceEnabled {
		seeds = 2
	}
	backward := 0
	for _, eng := range []Engine{StageSampling{}, Frugal{}} {
		for _, budget := range []float64{200, 2000} {
			for seed := uint64(1); seed <= seeds; seed++ {
				in, err := workload.DefaultScenario().Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s B=%g seed %d", eng.Name(), budget, seed)
				rng := workload.NewRNG(seed)
				for _, order := range []string{"descending", "shuffled"} {
					a := driveTo(t, in, budget, eng, in.Slots)
					var winners []core.PhoneID
					for p := a.ledger.NumPhones() - 1; p >= 0; p-- {
						if i := core.PhoneID(p); a.ledger.WonAt(i) != 0 {
							winners = append(winners, i)
						}
					}
					if order == "shuffled" {
						for k := len(winners) - 1; k > 0; k-- {
							j := int(rng.Uint64() % uint64(k+1))
							winners[k], winners[j] = winners[j], winners[k]
						}
					}
					observe := func(i core.PhoneID) {
						if a.prefix != nil && a.ledger.Bids()[i].Arrival-1 < a.prefix.Now() {
							backward++
						}
					}
					checkWinners(t, a, label+" "+order, winners, observe)
				}
			}
		}
	}
	if backward == 0 {
		t.Fatal("no probe rewound the prefix to an earlier slot: the backward path went unexercised")
	}
	t.Logf("backward rewinds: %d", backward)
}

// TestPricingLeavesObservedState pins that pricing never writes the
// observed state it shares with its replays: after every Step of a
// priced round, the stage, each opened stage's sample and raw
// threshold, the posted-price discard slots and the per-slot reserved
// amounts equal, bit for bit, those of an unpriced run of the same
// stream, and every exclude-self threshold the priced round has cached
// equals the unpriced run's for the same cost.
func TestPricingLeavesObservedState(t *testing.T) {
	seeds := uint64(4)
	if testing.Short() || raceEnabled {
		seeds = 1
	}
	for _, eng := range []Engine{StageSampling{}, Frugal{}} {
		for _, budget := range []float64{200, 2000} {
			for seed := uint64(1); seed <= seeds; seed++ {
				in, err := workload.DefaultScenario().Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s B=%g seed %d", eng.Name(), budget, seed)
				priced, err := New(in.Slots, in.Value, in.AllocateAtLoss, budget, eng)
				if err != nil {
					t.Fatal(err)
				}
				unpriced, err := New(in.Slots, in.Value, in.AllocateAtLoss, budget, eng)
				if err != nil {
					t.Fatal(err)
				}
				unpriced.replay = true // settles nothing, so prices nothing
				paid, cached := 0, 0
				err = core.StepThrough(priced, in, in.Slots, func(res *core.SlotResult) error {
					paid += len(res.Payments)
					now := priced.Now()
					if err := core.StepThrough(unpriced, in, now, nil); err != nil {
						return err
					}
					if priced.stage != unpriced.stage {
						return fmt.Errorf("stage %d, unpriced %d", priced.stage, unpriced.stage)
					}
					if !slices.Equal(priced.dropped, unpriced.dropped) {
						return fmt.Errorf("dropped %v, unpriced %v", priced.dropped, unpriced.dropped)
					}
					if !sameBits(priced.reservedAt[:now+1], unpriced.reservedAt[:now+1]) {
						return fmt.Errorf("reserved by slot %v, unpriced %v", priced.reservedAt[:now+1], unpriced.reservedAt[:now+1])
					}
					for k := 1; k <= priced.stage; k++ {
						if !sameBits(priced.samples[k], unpriced.samples[k]) {
							return fmt.Errorf("stage %d sample %v, unpriced %v", k, priced.samples[k], unpriced.samples[k])
						}
						if !sameBits([]float64{priced.rawThr[k]}, []float64{unpriced.rawThr[k]}) {
							return fmt.Errorf("stage %d threshold %v, unpriced %v", k, priced.rawThr[k], unpriced.rawThr[k])
						}
						for r, thr := range priced.exclThr[k] {
							if math.IsNaN(thr) {
								continue
							}
							cached++
							c := priced.samples[k][r]
							if want := unpriced.exclThreshold(k, c); !sameBits([]float64{thr}, []float64{want}) {
								return fmt.Errorf("stage %d less %v: cached threshold %v, unpriced %v", k, c, thr, want)
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if paid == 0 || cached == 0 {
					t.Fatalf("%s: %d payments and %d cached thresholds: nothing to check", label, paid, cached)
				}
			}
		}
	}
}

// sameBits reports whether x and y hold the same floats, bit for bit.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if math.Float64bits(x[k]) != math.Float64bits(y[k]) {
			return false
		}
	}
	return true
}
