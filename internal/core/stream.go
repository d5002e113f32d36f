package core

import (
	"fmt"
	"time"
)

// StreamBid is a bid submitted by a phone joining in the current slot.
// Its claimed arrival is implicitly the current slot, so the no-early-
// arrival constraint is enforced structurally rather than by trust.
type StreamBid struct {
	Departure Slot    // d̃: claimed last active slot
	Cost      float64 // b: claimed per-task cost
}

// PaymentNotice is a finalized payment to a departing winner. Payments
// are executed in the winner's reported departure slot, as the paper
// specifies (late payment is what removes the incentive to misreport an
// early departure).
type PaymentNotice struct {
	Phone  PhoneID
	Amount float64
}

// SlotResult reports everything the online auction did in one slot.
type SlotResult struct {
	Slot        Slot
	Joined      []PhoneID // IDs assigned to this slot's arriving bids, in input order
	Assignments []Assignment
	Unserved    int // tasks that arrived this slot and found no phone
	Payments    []PaymentNotice
	// Departed lists every phone whose reported departure is this slot
	// (winners and losers alike). Only populated when departure
	// tracking is enabled (TrackDepartures); the platform's tracer
	// uses it to emit departure events.
	Departed []PhoneID
}

// OnlineAuction drives the online mechanism slot by slot, the way the
// real platform experiences a round: phones join and submit bids in their
// arrival slot, tasks are announced per slot, winners are determined
// immediately, and payments are finalized at each winner's reported
// departure slot. A completed OnlineAuction yields the same allocation
// and payments as OnlineMechanism.Run on the equivalent batch instance.
//
// One Step costs amortized O((a + r) log p) for the slot's a arrivals
// and r tasks over a pool of p active phones, plus O(1) per departing
// phone, which it finds through a per-slot departure list rather than a
// scan of the round's bids. A departing winner is priced by a cascade
// walk over the retained pricing state of the greedy run (per-task
// runner-ups, per-slot winner-cost tables): O(window + cascade slots),
// plus one O(tasks in slot) relink of each slot's within-slot chain
// memo. None of it grows with how far into the round the slot is.
//
// The round's per-phone and per-task state grows once per Step, before
// the slot's appends, and by doubling (see grown), so a round of n bids
// copies its state O(1) times per element. Each amount Step issues is
// recorded, and Outcome re-prices only the winners that have not yet
// departed.
//
// Its round state mirrors the budgeted engine's Ledger field for field,
// and the two share every rule over it (see Ledger). It keeps that
// state in its own fields rather than a Ledger: kept in one, the
// engine-heavy workload's step p99s rose (ROADMAP item 1 records the
// pairs and the cause).
type OnlineAuction struct {
	now   Slot // last processed slot (0 before the first Step)
	bids  []Bid
	tasks []Task

	metrics         *Metrics // nil disables instrumentation
	trackDepartures bool

	// Departure lists: slot t's departing phones, in ascending ID order,
	// run from depHead[t] along depNext to depTail[t]; -1 ends a list.
	depHead, depTail []int32 // slot -> first and last phone departing then
	depNext          []int32 // phone -> next phone with its departure slot

	heap costHeap
	run  greedyRun   // winners plus retained cascade pricing state
	comp completions // assignment lifecycle (off by default)

	inst  Instance  // the round's m, ν and reserve rule, and a view over bids/tasks refreshed by instance()
	fixes []slotFix // reusable cascade scratch
}

// NewOnlineAuction creates a round of m slots with per-task value ν.
func NewOnlineAuction(m Slot, value float64, allocateAtLoss bool) (*OnlineAuction, error) {
	if err := checkRound(m, value); err != nil {
		return nil, fmt.Errorf("online auction: %w", err)
	}
	oa := &OnlineAuction{inst: Instance{Slots: m, Value: value, AllocateAtLoss: allocateAtLoss}}
	oa.run.resetSlots(m)
	oa.depHead = make([]int32, m+1)
	oa.depTail = make([]int32, m+1)
	for t := range oa.depHead {
		oa.depHead[t], oa.depTail[t] = -1, -1
	}
	return oa, nil
}

// SetMetrics instruments the auction's Step hot path (slot-allocation
// and payment latency histograms, engine invocation counters). Nil
// (the default) disables instrumentation at zero cost. Set before the
// first Step; the auction is not safe for concurrent use anyway.
func (oa *OnlineAuction) SetMetrics(m *Metrics) { oa.metrics = m }

// TrackDepartures makes Step populate SlotResult.Departed with every
// phone whose reported departure is the processed slot. Off by default:
// the extra appends are only worth paying when a tracer consumes them.
func (oa *OnlineAuction) TrackDepartures(on bool) { oa.trackDepartures = on }

// TrackCompletions toggles the assignment lifecycle (see completion.go):
// when on, every assignment must be resolved via Complete or Default,
// defaulted winners are paid nothing, and their tasks are re-allocated
// in place. Enable before the first Step; enabling mid-round adopts
// current winners as assigned, and a winner already paid keeps its
// recorded payment, which a later default claws back. Off by default,
// at zero cost to the hot path.
func (oa *OnlineAuction) TrackCompletions(on bool) {
	oa.comp.enabled = on
	if !on {
		return
	}
	oa.comp.grow(len(oa.bids))
	for i, task := range oa.run.phoneTask {
		if task != NoTask && oa.comp.status[i] == StatusNone {
			oa.comp.status[i] = StatusAssigned
		}
	}
}

// Complete marks phone p's assignment as delivered. It returns
// ErrAlreadyCompleted for a duplicate report, ErrNotAssigned when p has
// no live assignment, and ErrNotTracking when the lifecycle is off.
func (oa *OnlineAuction) Complete(p PhoneID) error { return oa.comp.complete(p) }

// Completion returns phone p's lifecycle view (zero value while
// tracking is off or for unknown phones).
func (oa *OnlineAuction) Completion(p PhoneID) CompletionState {
	return oa.comp.state(&oa.run, p)
}

// CompletionCounts returns aggregate lifecycle outcomes.
func (oa *OnlineAuction) CompletionCounts() CompletionCounts { return oa.comp.counts }

// Now returns the last processed slot (0 before the first Step).
func (oa *OnlineAuction) Now() Slot { return oa.now }

// Done reports whether all m slots have been processed.
func (oa *OnlineAuction) Done() bool { return oa.now >= oa.inst.Slots }

// Step advances the auction one slot: the given bids join (their claimed
// arrival is the new slot), numTasks tasks are announced and greedily
// allocated, and payments are finalized for winners whose reported
// departure is the new slot.
func (oa *OnlineAuction) Step(arriving []StreamBid, numTasks int) (*SlotResult, error) {
	if err := checkSlot(oa.inst.Slots, oa.now, len(oa.bids), arriving, numTasks); err != nil {
		return nil, fmt.Errorf("online auction: %w", err)
	}
	t := oa.now + 1
	oa.now = t
	oa.reserve(len(arriving), numTasks)
	res := &SlotResult{Slot: t, Joined: make([]PhoneID, 0, len(arriving))}
	var start time.Time
	if oa.metrics != nil {
		start = time.Now()
	}

	for _, sb := range arriving {
		id := PhoneID(len(oa.bids))
		bid := Bid{Phone: id, Arrival: t, Departure: sb.Departure, Cost: sb.Cost}
		oa.bids = append(oa.bids, bid)
		oa.run.wonAt = append(oa.run.wonAt, 0)
		oa.run.phoneTask = append(oa.run.phoneTask, NoTask)
		res.Joined = append(res.Joined, id)
		// Appending at the tail keeps each departure list in ID order.
		oa.depNext = append(oa.depNext, -1)
		if tail := oa.depTail[sb.Departure]; tail < 0 {
			oa.depHead[sb.Departure] = int32(id)
		} else {
			oa.depNext[tail] = int32(id)
		}
		oa.depTail[sb.Departure] = int32(id)
		if oa.inst.poolable(sb.Cost) {
			oa.heap.push(&bid)
		}
	}
	oa.comp.grow(len(oa.bids))

	for k := 0; k < numTasks; k++ {
		id := TaskID(len(oa.tasks))
		oa.tasks = append(oa.tasks, Task{ID: id, Arrival: t})
		oa.run.byTask = append(oa.run.byTask, NoPhone)
		oa.run.runnerUp = append(oa.run.runnerUp, NoPhone)
		winner := oa.heap.popUsable(t, oa.run.phoneTask, &oa.comp)
		if winner == NoPhone {
			oa.run.unserved[t]++
			res.Unserved++
			continue
		}
		oa.run.byTask[id] = winner
		oa.run.phoneTask[winner] = id
		oa.run.wonAt[winner] = t
		oa.run.noteWinner(t, winner, oa.bids[winner].Cost)
		oa.comp.markAssigned(winner)
		oa.run.runnerUp[id] = oa.heap.peekUsable(t, oa.run.phoneTask, &oa.comp)
		res.Assignments = append(res.Assignments, Assignment{Task: id, Phone: winner, Slot: t})
	}

	if oa.metrics != nil {
		oa.metrics.SlotAllocSeconds.Observe(time.Since(start).Seconds())
		start = time.Now()
	}

	// Finalize payments for winners departing this slot, priced from the
	// retained incremental state. The cascade only looks at slots ≤ t,
	// and every bid or task that will arrive later is invisible to those
	// slots, so paying now equals paying at end of round, and the
	// recorded amount is final.
	in := oa.instance()
	for next := oa.depHead[t]; next >= 0; next = oa.depNext[next] {
		i := PhoneID(next)
		if oa.trackDepartures {
			res.Departed = append(res.Departed, i)
		}
		if oa.run.wonAt[i] == 0 || !oa.comp.payable(i) {
			continue
		}
		amount := oa.price(in, i)
		oa.comp.markPaid(i, amount, t)
		res.Payments = append(res.Payments, PaymentNotice{Phone: i, Amount: amount})
	}
	if oa.metrics != nil {
		oa.metrics.PaymentSeconds.Observe(time.Since(start).Seconds())
	}
	oa.heap.compact(t)
	return res, nil
}

// reserve makes room for a more phones and r more tasks in the round's
// per-phone and per-task slices, so the slot's appends never reallocate.
// The slices stay plain and contiguous: instance(), the cascade, Default
// and checkpoint alias them.
func (oa *OnlineAuction) reserve(a, r int) {
	oa.bids = grown(oa.bids, a)
	oa.run.wonAt = grown(oa.run.wonAt, a)
	oa.run.phoneTask = grown(oa.run.phoneTask, a)
	oa.depNext = grown(oa.depNext, a)
	oa.tasks = grown(oa.tasks, r)
	oa.run.byTask = grown(oa.run.byTask, r)
	oa.run.runnerUp = grown(oa.run.runnerUp, r)
}

// instance refreshes the auction's reusable Instance view over the bids
// and tasks seen so far and returns it. The view shares their backing
// arrays and is valid until the next Step.
func (oa *OnlineAuction) instance() *Instance {
	oa.inst.Bids, oa.inst.Tasks = oa.bids, oa.tasks
	return &oa.inst
}

// price returns winner i's critical payment by the cascade over in, the
// view instance() returned since the last Step.
func (oa *OnlineAuction) price(in *Instance, i PhoneID) float64 {
	oa.metrics.noteCascade()
	var pay float64
	pay, oa.fixes = cascadePayment(in, &oa.run, i, oa.fixes)
	return pay
}

// Outcome assembles the full round outcome. It is valid once Done()
// (earlier calls return the partial state: allocations so far, each
// departed winner's issued payment, and each undeparted winner's
// critical value under the state so far). Only undeparted winners are
// priced: an issued amount is copied from the record Step keeps.
func (oa *OnlineAuction) Outcome() *Outcome {
	in := oa.instance()
	out := outcomeOf(in, oa.run.byTask)
	for i, task := range oa.run.phoneTask {
		if task == NoTask {
			continue
		}
		// An executed payment is final: later defaults in overlapping
		// slots may shift the recomputed cascade value, but the amount
		// actually issued is what the outcome owes. Without defaults
		// the two are equal, so the copy only saves the cascade walk.
		if amount, ok := oa.comp.settled(PhoneID(i)); ok {
			out.Payments[i] = amount
			continue
		}
		out.Payments[i] = oa.price(in, PhoneID(i))
	}
	return out
}

// Standing returns admitted phone p's task and winning slot (NoTask and
// 0 if it holds none) and, once a payment has been issued to it, the
// amount, with settled true. It prices nothing. Under the lifecycle a
// defaulted phone holds no task but keeps its issued (clawed back)
// amount; Completion tells the two apart.
func (oa *OnlineAuction) Standing(p PhoneID) (task TaskID, won Slot, paid float64, settled bool) {
	if _, ok := bidAt(oa.bids, p); !ok {
		return NoTask, 0, 0, false
	}
	paid, settled = oa.comp.settled(p)
	return oa.run.phoneTask[p], oa.run.wonAt[p], paid, settled
}

// Bid returns admitted phone p's bid; ok is false for any other ID.
func (oa *OnlineAuction) Bid(p PhoneID) (Bid, bool) { return bidAt(oa.bids, p) }

// Instance returns a copy of the bids and tasks accumulated so far,
// e.g. to compare the online outcome against the offline optimum.
func (oa *OnlineAuction) Instance() *Instance { return oa.instance().Clone() }
