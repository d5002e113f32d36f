package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// literalCascadePayment is the cascade engine without the within-slot
// memo: it follows task → runner-up → that runner-up's task one step at
// a time, O(tasks in slot) per winner. It is the reference the memoized
// walk in cascadePayment is checked against, including after defaults
// have relinked a slot's chains.
func literalCascadePayment(in *Instance, run *greedyRun, i PhoneID) float64 {
	bids := in.Bids
	won := wonAt(in.Tasks, run.phoneTask[i])
	dep := bids[i].Departure
	pay := bids[i].Cost
	var fixes []slotFix

	tau := run.phoneTask[i]
	debt := i
	for tau != NoTask {
		t := in.Tasks[tau].Arrival
		if t > dep {
			break
		}
		firstOut := debt
		r := run.runnerUp[tau]
		for r != NoPhone {
			next := run.phoneTask[r]
			if next == NoTask || in.Tasks[next].Arrival != t {
				break
			}
			debt, tau = r, next
			r = run.runnerUp[tau]
		}
		var cand float64
		switch {
		case r == NoPhone:
			cand = in.Value
			tau = NoTask
		case run.unserved[t] > 0:
			cand = in.Value
			debt, tau = r, run.phoneTask[r]
		default:
			cand = run.maxExcluding(t, firstOut)
			if c := bids[r].Cost; c > cand {
				cand = c
			}
			debt, tau = r, run.phoneTask[r]
		}
		fixes = append(fixes, slotFix{slot: t, cand: cand})
	}

	fi := 0
	for t := won; t <= dep; t++ {
		var cand float64
		switch {
		case fi < len(fixes) && fixes[fi].slot == t:
			cand = fixes[fi].cand
			fi++
		case run.unserved[t] > 0:
			cand = in.Value
		default:
			cand = run.max1[t]
		}
		if cand > pay {
			pay = cand
		}
	}
	return pay
}

// matchesLiteralWalk prices every current winner of oa with the cascade
// and requires the literal walk's float bit for bit. It returns
// the number of winners priced.
func matchesLiteralWalk(t *testing.T, oa *OnlineAuction, tag string) int {
	t.Helper()
	in := oa.instance()
	priced := 0
	for i, task := range oa.run.phoneTask {
		if task == NoTask {
			continue
		}
		want := literalCascadePayment(in, &oa.run, PhoneID(i))
		if got := oa.price(in, PhoneID(i)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: phone %d memoized cascade %v, literal walk %v", tag, i, got, want)
		}
		priced++
	}
	return priced
}

// backwardLinks counts the tasks whose runner-up now wins an earlier
// task of the same slot, which only a default can cause.
func backwardLinks(oa *OnlineAuction) int {
	n := 0
	for k, r := range oa.run.runnerUp {
		if r == NoPhone {
			continue
		}
		if next := oa.run.phoneTask[r]; next != NoTask && int(next) < k && oa.tasks[next].Arrival == oa.tasks[k].Arrival {
			n++
		}
	}
	return n
}

// denseSlotInstance draws an m-slot round with exactly r tasks per slot
// and about 1.5r phones arriving per slot, each staying 1–4 slots: most
// tasks are served, so a task's runner-up usually wins the slot's next
// task and within-slot chains run to the end of the slot.
func denseSlotInstance(rng *rand.Rand, m Slot, r int, atLoss bool) *Instance {
	in := &Instance{Slots: m, Value: 30, AllocateAtLoss: atLoss}
	for t := Slot(1); t <= m; t++ {
		for k := 0; k < r+r/2; k++ {
			d := t + Slot(rng.Intn(4))
			if d > m {
				d = m
			}
			in.Bids = append(in.Bids, Bid{Phone: PhoneID(len(in.Bids)), Arrival: t, Departure: d, Cost: rng.Float64() * 40})
		}
		for k := 0; k < r; k++ {
			in.Tasks = append(in.Tasks, Task{ID: TaskID(len(in.Tasks)), Arrival: t})
		}
	}
	return in
}

// TestCascadeMatchesLiteralWalkWithDefaults checks the memoized
// within-slot jump against the literal walk where the oracle cannot
// serve as reference: after defaults have re-allocated tasks in place,
// and after a snapshot restore that replays those defaults.
func TestCascadeMatchesLiteralWalkWithDefaults(t *testing.T) {
	t.Run("backward-link", func(t *testing.T) {
		// Five phones, three slot-1 tasks: greedy assigns A, B, C with
		// runner-ups B, C, D. A's default drafts D into task 0, so task
		// 2's runner-up D now wins an EARLIER task of the same slot —
		// the one link the memo cannot jump over.
		oa, err := NewOnlineAuction(3, 30, false)
		if err != nil {
			t.Fatal(err)
		}
		oa.TrackCompletions(true)
		var arriving []StreamBid
		for _, c := range []float64{1, 2, 3, 4, 5} {
			arriving = append(arriving, StreamBid{Departure: 3, Cost: c})
		}
		stepOne(t, oa, arriving, 3)
		const a, b, c, d = PhoneID(0), PhoneID(1), PhoneID(2), PhoneID(3)
		// Price first, so the slot's memo is linked before the default.
		if got := oa.Outcome().Payments[c]; got != 4 {
			t.Fatalf("C paid %v before the default, want 4 (runner-up D)", got)
		}
		if _, err := oa.Default(a); err != nil {
			t.Fatal(err)
		}
		if oa.run.byTask[0] != d || oa.run.runnerUp[2] != d || backwardLinks(oa) != 1 {
			t.Fatalf("setup: task 0 -> %d, task 2 runner-up %d; want both D", oa.run.byTask[0], oa.run.runnerUp[2])
		}
		matchesLiteralWalk(t, oa, "after default")
		// Without C, task 2 goes to D, task 0 then to E (cost 5).
		out := oa.Outcome()
		if out.Payments[c] != 5 || out.Payments[b] != 5 {
			t.Fatalf("after default: B paid %v, C paid %v; want 5 and 5", out.Payments[b], out.Payments[c])
		}
		sameAfterRestore(t, oa)
	})

	t.Run("random-scripts", func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		rounds, priced, defaults, backward := 0, 0, 0, 0
		for trial := 0; trial < 24; trial++ {
			var in *Instance
			if trial%3 == 0 {
				in = randomInstance(rng, 30, 30, 6, 50)
			} else {
				in = denseSlotInstance(rng, 6, 8+rng.Intn(25), trial%2 == 0)
			}
			oa, err := NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
			if err != nil {
				t.Fatal(err)
			}
			oa.TrackCompletions(true)
			perSlot := in.TasksPerSlot()
			byArrival := make([][]StreamBid, in.Slots+1)
			for _, bid := range in.Bids {
				byArrival[bid.Arrival] = append(byArrival[bid.Arrival], StreamBid{Departure: bid.Departure, Cost: bid.Cost})
			}
			for s := Slot(1); s <= in.Slots; s++ {
				tag := fmt.Sprintf("trial %d slot %d", trial, s)
				res := stepOne(t, oa, byArrival[s], perSlot[s-1])
				// Departure notices were priced by the memo mid-Step;
				// the state is unchanged since, so the walk must agree.
				in := oa.instance()
				for _, n := range res.Payments {
					if want := literalCascadePayment(in, &oa.run, n.Phone); math.Float64bits(n.Amount) != math.Float64bits(want) {
						t.Fatalf("%s: phone %d notice %v, literal walk %v", tag, n.Phone, n.Amount, want)
					}
				}
				priced += matchesLiteralWalk(t, oa, tag)
				// Default a random share of the live assignments, pricing
				// between defaults so every relink sees a changed slot.
				for p := range oa.bids {
					if oa.comp.status[p] != StatusAssigned || rng.Intn(4) != 0 {
						continue
					}
					if _, err := oa.Default(PhoneID(p)); err != nil {
						t.Fatalf("%s: default %d: %v", tag, p, err)
					}
					defaults++
					backward += backwardLinks(oa)
					priced += matchesLiteralWalk(t, oa, tag+" after default")
				}
				if s%2 == 0 && len(oa.comp.log) > 0 {
					data, err := oa.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if oa, err = RestoreOnlineAuction(data); err != nil {
						t.Fatalf("%s: restore: %v", tag, err)
					}
					priced += matchesLiteralWalk(t, oa, tag+" after restore")
				}
			}
			rounds++
		}
		if defaults == 0 || backward == 0 {
			t.Fatalf("script issued %d defaults, saw %d backward links; want both > 0", defaults, backward)
		}
		if testing.Verbose() {
			t.Logf("%d rounds, %d defaults, %d backward links seen, %d winner prices compared", rounds, defaults, backward, priced)
		}
	})
}

// BenchmarkCascadeDenseSlot prices every winner of one round with r
// tasks in each slot. Each iteration invalidates the within-slot memo
// first, so it pays one relink per slot, as a streaming round does.
// ns/winner stays flat in r when a within-slot chain costs O(1), and
// grows with r when each winner walks the rest of its slot.
func BenchmarkCascadeDenseSlot(b *testing.B) {
	for _, r := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			in := denseSlotInstance(rand.New(rand.NewSource(1)), 20, r, false)
			var idx arrivalsIndex
			idx.build(in)
			alloc := NewAllocation(len(in.Tasks), len(in.Bids))
			run := greedyRun{byTask: alloc.ByTask, phoneTask: alloc.ByPhone, runnerUp: make([]PhoneID, len(in.Tasks))}
			run.resetSlots(in.Slots)
			runBaseline(in, &idx, &run, nil)
			winners := 0
			for _, task := range run.phoneTask {
				if task != NoTask {
					winners++
				}
			}
			pay := make([]float64, len(in.Bids))
			var fixes []slotFix
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				run.markStale()
				for i, task := range run.phoneTask {
					if task != NoTask {
						pay[i], fixes = cascadePayment(in, &run, PhoneID(i), fixes)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*winners), "ns/winner")
		})
	}
}
