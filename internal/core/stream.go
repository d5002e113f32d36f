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
// The auction retains the incremental pricing state of the greedy run
// (per-task runner-ups, per-slot winner-cost tables), so a departure is
// priced by a cascade walk over that state instead of re-simulating the
// round from a snapshot — the platform's per-slot hot path stays
// O(window + cascade) per departing winner.
type OnlineAuction struct {
	slots          Slot
	value          float64
	allocateAtLoss bool

	now   Slot // last processed slot (0 before the first Step)
	bids  []Bid
	tasks []Task

	metrics         *Metrics // nil disables instrumentation
	trackDepartures bool

	heap costHeap
	run  greedyRun   // winners plus retained cascade pricing state
	comp completions // assignment lifecycle (off by default)

	inst Instance     // reusable pricing view over bids/tasks
	q    paymentQuery // reusable pricing scratch
}

// NewOnlineAuction creates a round of m slots with per-task value ν.
func NewOnlineAuction(m Slot, value float64, allocateAtLoss bool) (*OnlineAuction, error) {
	if m < 1 {
		return nil, fmt.Errorf("online auction: round length %d < 1", m)
	}
	if value < 0 {
		return nil, fmt.Errorf("online auction: negative task value %g", value)
	}
	oa := &OnlineAuction{slots: m, value: value, allocateAtLoss: allocateAtLoss}
	oa.run.resetSlots(m)
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
// current winners as assigned, but winners already paid before enabling
// carry no recorded payment to claw back. Off by default, at zero cost
// to the hot path.
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

// Default marks phone p's assignment as failed: p is paid nothing (any
// issued payment is reported as a clawback), and its task is re-allocated
// to the next-cheapest eligible phone, which is priced at its own
// critical value under the post-default state. Errors mirror Complete.
func (oa *OnlineAuction) Default(p PhoneID) (*DefaultResult, error) {
	if !oa.comp.enabled {
		return nil, ErrNotTracking
	}
	q := oa.pricer()
	return defaultWinner(q.in, &oa.run, &oa.comp, p, oa.now, func(r PhoneID) float64 {
		return cascadeEngine{}.price(q, r)
	})
}

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
func (oa *OnlineAuction) Done() bool { return oa.now >= oa.slots }

// Step advances the auction one slot: the given bids join (their claimed
// arrival is the new slot), numTasks tasks are announced and greedily
// allocated, and payments are finalized for winners whose reported
// departure is the new slot.
func (oa *OnlineAuction) Step(arriving []StreamBid, numTasks int) (*SlotResult, error) {
	if oa.Done() {
		return nil, fmt.Errorf("online auction: round already complete (%d slots)", oa.slots)
	}
	if numTasks < 0 {
		return nil, fmt.Errorf("online auction: negative task count %d", numTasks)
	}
	t := oa.now + 1
	for k, sb := range arriving {
		probe := Bid{Phone: PhoneID(len(oa.bids) + k), Arrival: t, Departure: sb.Departure, Cost: sb.Cost}
		if err := probe.Validate(oa.slots); err != nil {
			return nil, fmt.Errorf("online auction: %w", err)
		}
	}
	oa.now = t
	res := &SlotResult{Slot: t}
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
		// Reserve price: bids that can never yield positive welfare are
		// recorded (they may still depart, and auditors may inspect them)
		// but never enter the allocation pool.
		if oa.allocateAtLoss || sb.Cost < oa.value {
			oa.heap.bids = oa.bids
			oa.heap.push(id)
		}
	}
	oa.heap.bids = oa.bids
	oa.comp.grow(len(oa.bids))

	for k := 0; k < numTasks; k++ {
		id := TaskID(len(oa.tasks))
		oa.tasks = append(oa.tasks, Task{ID: id, Arrival: t})
		oa.run.byTask = append(oa.run.byTask, NoPhone)
		oa.run.runnerUp = append(oa.run.runnerUp, NoPhone)
		winner := oa.popUsable(t)
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
		oa.run.runnerUp[id] = oa.peekUsable(t)
		res.Assignments = append(res.Assignments, Assignment{Task: id, Phone: winner, Slot: t})
	}

	if oa.metrics != nil {
		oa.metrics.SlotAllocSeconds.Observe(time.Since(start).Seconds())
		start = time.Now()
	}

	// Finalize payments for winners departing this slot, priced from the
	// retained incremental state. The cascade only looks at slots ≤ t,
	// and every bid or task that will arrive later is invisible to those
	// slots, so paying now equals paying at end of round.
	q := oa.pricer()
	for i := range oa.bids {
		if oa.bids[i].Departure != t {
			continue
		}
		if oa.trackDepartures {
			res.Departed = append(res.Departed, PhoneID(i))
		}
		if oa.run.wonAt[i] == 0 || !oa.comp.payable(PhoneID(i)) {
			continue
		}
		amount := cascadeEngine{}.price(q, PhoneID(i))
		oa.comp.markPaid(PhoneID(i), amount, t)
		res.Payments = append(res.Payments, PaymentNotice{Phone: PhoneID(i), Amount: amount})
	}
	if oa.metrics != nil {
		oa.metrics.PaymentSeconds.Observe(time.Since(start).Seconds())
	}
	return res, nil
}

// popUsable pops the cheapest phone eligible in slot t that can still
// take a task. The lifecycle adds two terminal skip conditions on top
// of the heap's departed-phone lazy deletion: re-allocated winners
// (drafted by a default while still pooled) and defaulted phones.
// Both are permanent, so discarding is safe; with tracking off neither
// triggers and the path is unchanged.
func (oa *OnlineAuction) popUsable(t Slot) PhoneID {
	for {
		p := oa.heap.popEligible(t)
		if p == NoPhone || (oa.run.phoneTask[p] == NoTask && !oa.comp.blocked(p)) {
			return p
		}
	}
}

// peekUsable reports the phone popUsable would return next, discarding
// unusable entries but leaving the survivor in place.
func (oa *OnlineAuction) peekUsable(t Slot) PhoneID {
	for {
		p := oa.heap.peekEligible(t)
		if p == NoPhone || (oa.run.phoneTask[p] == NoTask && !oa.comp.blocked(p)) {
			return p
		}
		oa.heap.pop()
	}
}

// pricer refreshes the reusable payment query over the current state.
func (oa *OnlineAuction) pricer() *paymentQuery {
	oa.inst = Instance{
		Slots:          oa.slots,
		Value:          oa.value,
		Bids:           oa.bids,
		Tasks:          oa.tasks,
		AllocateAtLoss: oa.allocateAtLoss,
	}
	oa.q.in, oa.q.run, oa.q.idx, oa.q.m = &oa.inst, &oa.run, nil, oa.metrics
	return &oa.q
}

// instance materializes the bids and tasks seen so far as an Instance.
func (oa *OnlineAuction) instance() *Instance {
	return &Instance{
		Slots:          oa.slots,
		Value:          oa.value,
		Bids:           oa.bids,
		Tasks:          oa.tasks,
		AllocateAtLoss: oa.allocateAtLoss,
	}
}

// Outcome assembles the full round outcome. It is valid once Done()
// (earlier calls return the partial state: allocations so far, payments
// recomputed for all current winners).
func (oa *OnlineAuction) Outcome() *Outcome {
	in := oa.instance()
	alloc := NewAllocation(len(oa.tasks), len(oa.bids))
	for k, p := range oa.run.byTask {
		if p != NoPhone {
			alloc.Assign(TaskID(k), p, oa.tasks[k].Arrival)
		}
	}
	out := &Outcome{
		Allocation: alloc,
		Payments:   make([]float64, len(oa.bids)),
		Welfare:    alloc.Welfare(in),
	}
	q := oa.pricer()
	for i, task := range oa.run.phoneTask {
		if task == NoTask {
			continue
		}
		// An executed payment is final: later defaults in overlapping
		// slots may shift the recomputed cascade value, but the amount
		// actually issued at departure is what the outcome owes.
		if amount, ok := oa.comp.settled(PhoneID(i)); ok {
			out.Payments[i] = amount
			continue
		}
		out.Payments[i] = cascadeEngine{}.price(q, PhoneID(i))
	}
	return out
}

// Bid returns admitted phone p's bid; ok is false for any other ID.
func (oa *OnlineAuction) Bid(p PhoneID) (Bid, bool) {
	if p < 0 || int(p) >= len(oa.bids) {
		return Bid{}, false
	}
	return oa.bids[p], true
}

// Instance returns a copy of the bids and tasks accumulated so far,
// e.g. to compare the online outcome against the offline optimum.
func (oa *OnlineAuction) Instance() *Instance { return oa.instance().Clone() }
