package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestOnlineName(t *testing.T) {
	if got := (&OnlineMechanism{}).Name(); got != "online-greedy" {
		t.Fatalf("Name = %q", got)
	}
}

func TestOnlineRejectsInvalidInstance(t *testing.T) {
	in := paperInstance()
	in.Tasks[0].Arrival = 0
	if _, err := (&OnlineMechanism{}).Run(in); err == nil {
		t.Fatal("want validation error")
	}
}

// TestPaperFig4 replays the paper's Fig. 4 walkthrough exactly:
// greedy winners are phones 2,1,7,6,4 (1-based) in slots 1..5.
func TestPaperFig4(t *testing.T) {
	in := paperInstance()
	out := mustRun(t, &OnlineMechanism{}, in)

	// 1-based paper phones -> 0-based ids.
	wantWinners := []PhoneID{1, 0, 6, 5, 3}
	for k, want := range wantWinners {
		if got := out.Allocation.ByTask[k]; got != want {
			t.Fatalf("slot %d task went to phone %d, want %d (paper phone %d)", k+1, got, want, want+1)
		}
	}
	if got := out.Allocation.WonAt[6]; got != 3 {
		t.Fatalf("paper phone 7 won at slot %d, want 3", got)
	}
}

// TestPaperPaymentExample replays Section V-C's worked payment: phone 1
// (id 0) wins in slot 2; without it the tasks in slots 2..5 go to phones
// 5,7,6,4 with costs 4,6,8,9, so its payment is 9.
func TestPaperPaymentExample(t *testing.T) {
	in := paperInstance()
	out := mustRun(t, &OnlineMechanism{}, in)
	if got := out.Payments[0]; got != 9 {
		t.Fatalf("payment to paper phone 1 = %g, want 9", got)
	}
}

// TestOnlinePaymentsAreCriticalValues: bidding just below the computed
// payment still wins; bidding just above loses. This is the definition of
// the critical value (Definition 9) and the heart of Theorem 4.
func TestOnlinePaymentsAreCriticalValues(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	on := &OnlineMechanism{}
	const eps = 1e-6
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 8, 8, 6, 50)
		out := mustRun(t, on, in)
		for _, i := range out.Allocation.Winners() {
			p := out.Payments[i]

			below := in.Clone()
			below.Bids[i].Cost = p - eps
			if below.Bids[i].Cost < 0 {
				continue
			}
			outBelow := mustRun(t, on, below)
			if outBelow.Allocation.ByPhone[i] == NoTask {
				t.Fatalf("trial %d: phone %d bidding %g (just below critical %g) lost", trial, i, below.Bids[i].Cost, p)
			}

			above := in.Clone()
			above.Bids[i].Cost = p + eps
			outAbove := mustRun(t, on, above)
			if outAbove.Allocation.ByPhone[i] != NoTask {
				t.Fatalf("trial %d: phone %d bidding %g (just above critical %g) still won", trial, i, above.Bids[i].Cost, p)
			}
		}
	}
}

// TestOnlineMonotonicity (Definition 10): a winner still wins with a
// lower cost or a wider window.
func TestOnlineMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	on := &OnlineMechanism{}
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 8, 8, 6, 50)
		out := mustRun(t, on, in)
		for _, i := range out.Allocation.Winners() {
			alt := in.Clone()
			b := &alt.Bids[i]
			if b.Arrival > 1 && rng.Intn(2) == 0 {
				b.Arrival--
			}
			if b.Departure < alt.Slots && rng.Intn(2) == 0 {
				b.Departure++
			}
			b.Cost *= rng.Float64()
			outAlt := mustRun(t, on, alt)
			if outAlt.Allocation.ByPhone[i] == NoTask {
				t.Fatalf("trial %d: winner %d lost after improving its bid (%+v -> %+v)",
					trial, i, in.Bids[i], alt.Bids[i])
			}
		}
	}
}

// TestOnlineIndividualRationality (Theorem 5).
func TestOnlineIndividualRationality(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	on := &OnlineMechanism{}
	for trial := 0; trial < 80; trial++ {
		in := randomInstance(rng, 10, 10, 8, 40)
		out := mustRun(t, on, in)
		for i := range in.Bids {
			if u := out.Utility(PhoneID(i), in.Bids[i].Cost); u < -1e-9 {
				t.Fatalf("trial %d: phone %d negative utility %g", trial, i, u)
			}
		}
	}
}

// TestOnlineCompetitiveRatio (Theorem 6): online welfare ≥ 1/2 of the
// offline optimum on every random instance tried.
func TestOnlineCompetitiveRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	on := &OnlineMechanism{}
	of := &OfflineMechanism{}
	for trial := 0; trial < 150; trial++ {
		in := randomInstance(rng, 12, 12, 8, 50)
		outOn := mustRun(t, on, in)
		optimal, err := of.Welfare(in)
		if err != nil {
			t.Fatal(err)
		}
		if outOn.Welfare < optimal/2-1e-9 {
			t.Fatalf("trial %d: online welfare %g < half of optimum %g\ninstance %+v", trial, outOn.Welfare, optimal, in)
		}
		if outOn.Welfare > optimal+1e-9 {
			t.Fatalf("trial %d: online welfare %g exceeds optimum %g", trial, outOn.Welfare, optimal)
		}
	}
}

// TestOnlineCompetitiveRatioTight (Theorem 6 from below): no ratio
// above ½ can be claimed. Phone A costs c over [1,2], phone B costs
// c+ε over [1,1], and one task arrives in each slot. Greedy gives slot 1
// to the cheaper A, B leaves, and slot 2 goes unserved; the optimum
// serves slot 1 with B and slot 2 with A. The ratio (ν−c)/(2ν−2c−ε)
// tends to ½ as ε → 0.
func TestOnlineCompetitiveRatioTight(t *testing.T) {
	const nu, c = 10.0, 2.0
	on := &OnlineMechanism{}
	of := &OfflineMechanism{}
	prev := 1.0
	for _, eps := range []float64{1, 0.1, 1e-3, 1e-6} {
		in := &Instance{
			Slots: 2, Value: nu,
			Bids: []Bid{
				{Phone: 0, Arrival: 1, Departure: 2, Cost: c},
				{Phone: 1, Arrival: 1, Departure: 1, Cost: c + eps},
			},
			Tasks: []Task{{ID: 0, Arrival: 1}, {ID: 1, Arrival: 2}},
		}
		online := mustRun(t, on, in).Welfare
		optimal, err := of.Welfare(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(online-(nu-c)) > 1e-9 || math.Abs(optimal-(2*nu-2*c-eps)) > 1e-9 {
			t.Fatalf("ε=%g: online %g, optimum %g; want %g and %g", eps, online, optimal, nu-c, 2*nu-2*c-eps)
		}
		ratio := online / optimal
		if want := (nu - c) / (2*nu - 2*c - eps); math.Abs(ratio-want) > 1e-12 {
			t.Fatalf("ε=%g: ratio %g, want %g", eps, ratio, want)
		}
		if ratio < 0.5 || ratio >= prev {
			t.Fatalf("ε=%g: ratio %g is not in [½, %g)", eps, ratio, prev)
		}
		prev = ratio
	}
	if prev-0.5 > 1e-7 {
		t.Fatalf("ratio %g at the smallest ε does not approach ½", prev)
	}
}

// TestOnlineGreedyPicksCheapest: within one slot the cheapest active
// phones win.
func TestOnlineGreedyPicksCheapest(t *testing.T) {
	in := &Instance{
		Slots: 1, Value: 100,
		Bids: []Bid{
			{Phone: 0, Arrival: 1, Departure: 1, Cost: 30},
			{Phone: 1, Arrival: 1, Departure: 1, Cost: 10},
			{Phone: 2, Arrival: 1, Departure: 1, Cost: 20},
		},
		Tasks: []Task{{ID: 0, Arrival: 1}, {ID: 1, Arrival: 1}},
	}
	out := mustRun(t, &OnlineMechanism{}, in)
	if out.Allocation.ByPhone[1] == NoTask || out.Allocation.ByPhone[2] == NoTask {
		t.Fatalf("cheapest two phones should win: %v", out.Allocation.ByPhone)
	}
	if out.Allocation.ByPhone[0] != NoTask {
		t.Fatal("most expensive phone should lose")
	}
	// Critical value for both winners is phone 0's cost (the bid that
	// would replace them).
	if out.Payments[1] != 30 || out.Payments[2] != 30 {
		t.Fatalf("payments = %v, want 30 for both winners", out.Payments)
	}
}

// TestOnlineReservePrice: without AllocateAtLoss, a phone bidding ≥ ν
// never wins and a sole winner's payment is capped at ν.
func TestOnlineReservePrice(t *testing.T) {
	in := &Instance{
		Slots: 1, Value: 10,
		Bids: []Bid{
			{Phone: 0, Arrival: 1, Departure: 1, Cost: 4},
			{Phone: 1, Arrival: 1, Departure: 1, Cost: 12},
		},
		Tasks: []Task{{ID: 0, Arrival: 1}, {ID: 1, Arrival: 1}},
	}
	out := mustRun(t, &OnlineMechanism{}, in)
	if out.Allocation.ByPhone[1] != NoTask {
		t.Fatal("phone above reserve won")
	}
	if out.Allocation.ByPhone[0] == NoTask {
		t.Fatal("profitable phone lost")
	}
	// Without phone 0, its task is unserved, so the critical value is ν.
	if out.Payments[0] != 10 {
		t.Fatalf("payment = %g, want reserve 10", out.Payments[0])
	}
}

// TestOnlineAllocateAtLoss: with the paper's implicit all-tasks-allocated
// behaviour enabled, expensive phones do win.
func TestOnlineAllocateAtLoss(t *testing.T) {
	in := &Instance{
		Slots: 1, Value: 10, AllocateAtLoss: true,
		Bids:  []Bid{{Phone: 0, Arrival: 1, Departure: 1, Cost: 12}},
		Tasks: []Task{{ID: 0, Arrival: 1}},
	}
	out := mustRun(t, &OnlineMechanism{}, in)
	if out.Allocation.ByPhone[0] == NoTask {
		t.Fatal("phone should win when allocating at a loss")
	}
	// Scarcity cap: paid max(ν, b) = 12 so IR still holds.
	if out.Payments[0] != 12 {
		t.Fatalf("payment = %g, want 12", out.Payments[0])
	}
}

// TestOnlineDepartureRespected: a phone is not allocated after its
// reported departure even if it is the cheapest ever seen.
func TestOnlineDepartureRespected(t *testing.T) {
	in := &Instance{
		Slots: 2, Value: 100,
		Bids: []Bid{
			{Phone: 0, Arrival: 1, Departure: 1, Cost: 1},
			{Phone: 1, Arrival: 1, Departure: 2, Cost: 50},
		},
		// No task in slot 1; one task in slot 2.
		Tasks: []Task{{ID: 0, Arrival: 2}},
	}
	out := mustRun(t, &OnlineMechanism{}, in)
	if got := out.Allocation.ByTask[0]; got != 1 {
		t.Fatalf("task went to phone %d, want 1 (phone 0 departed)", got)
	}
}

// TestOnlineWelfareConsistency: reported welfare equals recomputed.
func TestOnlineWelfareConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	on := &OnlineMechanism{}
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 10, 10, 8, 40)
		out := mustRun(t, on, in)
		if math.Abs(out.Welfare-out.Allocation.Welfare(in)) > 1e-9 {
			t.Fatalf("trial %d: welfare mismatch", trial)
		}
	}
}

// TestOnlineTimeTruthfulness: reporting a narrower window (later arrival
// or earlier departure — the only feasible time misreports) never raises
// utility. This is the paper's key novelty over cost-only auctions.
func TestOnlineTimeTruthfulness(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	on := &OnlineMechanism{}
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 8, 8, 6, 50)
		truthful := mustRun(t, on, in)
		for i := range in.Bids {
			trueBid := in.Bids[i]
			uTruth := truthful.Utility(PhoneID(i), trueBid.Cost)
			for a := trueBid.Arrival; a <= trueBid.Departure; a++ {
				for d := a; d <= trueBid.Departure; d++ {
					if a == trueBid.Arrival && d == trueBid.Departure {
						continue
					}
					alt := in.Clone()
					alt.Bids[i].Arrival = a
					alt.Bids[i].Departure = d
					outAlt := mustRun(t, on, alt)
					if u := outAlt.Utility(PhoneID(i), trueBid.Cost); u > uTruth+1e-9 {
						t.Fatalf("trial %d: phone %d gains %g > %g by reporting window [%d,%d] instead of [%d,%d]",
							trial, i, u, uTruth, a, d, trueBid.Arrival, trueBid.Departure)
					}
				}
			}
		}
	}
}

// TestOnlineCostTruthfulness: misreporting the cost never raises utility.
func TestOnlineCostTruthfulness(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	on := &OnlineMechanism{}
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 8, 8, 6, 50)
		truthful := mustRun(t, on, in)
		for i := range in.Bids {
			trueCost := in.Bids[i].Cost
			uTruth := truthful.Utility(PhoneID(i), trueCost)
			for _, factor := range []float64{0, 0.25, 0.5, 0.8, 0.95, 1.05, 1.3, 2, 5} {
				alt := in.Clone()
				alt.Bids[i].Cost = trueCost * factor
				outAlt := mustRun(t, on, alt)
				if u := outAlt.Utility(PhoneID(i), trueCost); u > uTruth+1e-9 {
					t.Fatalf("trial %d: phone %d gains %g > %g by claiming cost %g (real %g)",
						trial, i, u, uTruth, alt.Bids[i].Cost, trueCost)
				}
			}
		}
	}
}

// TestCostHeapPopOrder drives the allocation pool the way a round does —
// pushes, then pops and peeks at a non-decreasing slot, then a
// compaction at the end of each slot — and checks every answer against
// a brute-force minimum over the live entries. Costs come from a small
// set, so most comparisons fall through to the ID tiebreak.
func TestCostHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type entry struct {
		id   PhoneID
		dep  Slot
		cost float64
	}
	// want is the cheapest entry still active in slot s, by (cost, ID).
	want := func(live map[PhoneID]entry, s Slot) PhoneID {
		best := NoPhone
		for id, e := range live {
			if e.dep < s {
				continue
			}
			if best == NoPhone || e.cost < live[best].cost || (e.cost == live[best].cost && id < best) {
				best = id
			}
		}
		return best
	}
	checkShape := func(h *costHeap) {
		t.Helper()
		for i := 1; i < len(h.items); i++ {
			if h.items[i].less(h.items[(i-1)/4]) {
				t.Fatalf("heap order broken at %d: %+v above %+v", i, h.items[(i-1)/4], h.items[i])
			}
		}
	}

	for trial := 0; trial < 30; trial++ {
		var h costHeap
		base := 0 // entries the last filtering compaction left
		live := map[PhoneID]entry{}
		ids := rng.Perm(4000)
		const m = 40
		for s := Slot(1); s <= m; s++ {
			for k := rng.Intn(100); k > 0 && len(ids) > 0; k-- {
				e := entry{id: PhoneID(ids[0]), dep: s + Slot(rng.Intn(4)), cost: float64(rng.Intn(5))}
				ids = ids[1:]
				h.push(&Bid{Phone: e.id, Arrival: s, Departure: e.dep, Cost: e.cost})
				live[e.id] = e
			}
			for k := rng.Intn(30); k > 0; k-- {
				w := want(live, s)
				if rng.Intn(3) == 0 {
					if got := h.peekEligible(s); got != w {
						t.Fatalf("trial %d slot %d: peekEligible = %d, want %d", trial, s, got, w)
					}
					continue
				}
				if got := h.popEligible(s); got != w {
					t.Fatalf("trial %d slot %d: popEligible = %d, want %d", trial, s, got, w)
				}
				delete(live, w)
			}
			// compact filters once the heap holds at least 64 entries and
			// twice what the last filtering left; then it drops exactly
			// the entries departed by s.
			before, departed := h.len(), 0
			for _, e := range h.items {
				if Slot(e.dep) <= s {
					departed++
				}
			}
			h.compact(s)
			wantLen := before
			if before >= 64 && before >= 2*base {
				wantLen = before - departed
				base = wantLen
			}
			if h.len() != wantLen {
				t.Fatalf("trial %d slot %d: compaction left %d of %d entries, want %d", trial, s, h.len(), before, wantLen)
			}
			checkShape(&h)
			for _, e := range h.items {
				if _, ok := live[PhoneID(e.id)]; !ok {
					t.Fatalf("trial %d slot %d: heap holds popped phone %d", trial, s, e.id)
				}
			}
		}
	}

	// A compaction that leaves nothing, then one that leaves one entry:
	// the bottom-up heapify must cope with both, and the pool must keep
	// working afterwards.
	var h costHeap
	for i := 0; i < 64; i++ {
		h.push(&Bid{Phone: PhoneID(i), Arrival: 1, Departure: 1, Cost: 1})
	}
	h.compact(1)
	if h.len() != 0 {
		t.Fatalf("compaction kept %d departed entries", h.len())
	}
	for i := 64; i < 192; i++ {
		h.push(&Bid{Phone: PhoneID(i), Arrival: 2, Departure: 2, Cost: float64(200 - i)})
	}
	h.push(&Bid{Phone: 500, Arrival: 2, Departure: 3, Cost: 9})
	h.compact(2)
	if h.len() != 1 {
		t.Fatalf("compaction kept %d entries, want 1", h.len())
	}
	if got := h.popEligible(3); got != 500 {
		t.Fatalf("popEligible after compaction = %d, want 500", got)
	}
	if got := h.popEligible(3); got != NoPhone {
		t.Fatalf("popEligible on an empty pool = %d, want NoPhone", got)
	}
}
