package core

import "fmt"

// OnlineMechanism is the paper's Section V auction for the practical case
// where bids and tasks are revealed slot by slot. Allocation is greedy
// (Algorithm 1): in each slot the newly arrived tasks go to the cheapest
// currently active, still-unallocated phones. Payment is the critical
// value (Algorithm 2): the maximum claimed cost among the phones the
// greedy allocation would select between the winner's winning slot and
// its reported departure if the winner's bid were removed, floored at
// the winner's own claimed cost.
//
// The allocation rule is monotone and the payment equals each winner's
// critical value, so the mechanism is truthful (Theorem 4) and
// individually rational (Theorem 5); the allocation is 1/2-competitive
// against the offline optimum (Theorem 6).
//
// Payments come from the incremental cascade, which prices every winner
// from the single baseline run (docs/THEORY.md §5). OnlineOracle is the
// literal per-winner re-run of Algorithm 2, the reference the
// differential tests check the cascade against; both return
// bit-identical payments.
//
// Reserve price: when Instance.AllocateAtLoss is false (the default),
// bids with cost ≥ ν never win, and a winner whose removal would leave a
// task unserved is paid the reserve ν (its critical value under the
// reserve). When AllocateAtLoss is true the paper's unbounded-scarcity
// case is capped at max(ν, b_i); the paper implicitly assumes phones are
// abundant, so this cap is a documented boundary-condition choice.
type OnlineMechanism struct{}

// Name implements Mechanism.
func (*OnlineMechanism) Name() string { return "online-greedy" }

// Run implements Mechanism by driving the greedy allocator across the
// whole round and then pricing every winner with the cascade.
// The hot path reuses pooled scratch (arrivals index, allocation pool,
// cascade state), so steady-state runs allocate only the returned
// Outcome. Safe for concurrent use.
func (*OnlineMechanism) Run(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("online mechanism: %w", err)
	}
	sc := mechPool.Get().(*mechScratch)
	defer mechPool.Put(sc)
	sc.idx.build(in)

	// The baseline greedy writes winners straight into the outcome's
	// allocation arrays; only the cascade side state is pooled.
	alloc := NewAllocation(in.NumTasks(), in.NumPhones())
	run := &sc.run
	run.byTask = alloc.ByTask
	run.phoneTask = alloc.ByPhone
	run.runnerUp = resize(run.runnerUp, in.NumTasks())
	run.resetSlots(in.Slots)
	sc.heap = runBaseline(in, &sc.idx, run, sc.heap)
	fillWonAt(alloc.WonAt, in.Tasks, alloc.ByTask)

	out := &Outcome{
		Allocation: alloc,
		Payments:   make([]float64, in.NumPhones()),
		Welfare:    alloc.Welfare(in),
	}
	for i, task := range run.phoneTask {
		if task != NoTask {
			out.Payments[i], sc.fixes = cascadePayment(in, run, PhoneID(i), sc.fixes)
		}
	}

	// Unhook the escaping outcome before pooling the scratch.
	run.byTask, run.phoneTask = nil, nil
	return out, nil
}

// OnlineOracle is the online mechanism with the literal Algorithm 2
// payment: the same greedy allocation as OnlineMechanism, with each
// winner priced by a full greedy re-run without its bid. It costs one
// re-run per winner and allocates fresh scratch on every Run, and it is
// kept only as the reference the cascade is checked against: its
// payments are bit-identical to OnlineMechanism's. Safe for concurrent
// use.
type OnlineOracle struct{}

// Name implements Mechanism.
func (OnlineOracle) Name() string { return "online-greedy+oracle" }

// Run implements Mechanism.
func (OnlineOracle) Run(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("online oracle: %w", err)
	}
	var idx arrivalsIndex
	idx.build(in)
	alloc := NewAllocation(in.NumTasks(), in.NumPhones())
	run := greedyRun{byTask: alloc.ByTask, phoneTask: alloc.ByPhone, runnerUp: make([]PhoneID, in.NumTasks())}
	run.resetSlots(in.Slots)
	runBaseline(in, &idx, &run, nil)
	fillWonAt(alloc.WonAt, in.Tasks, alloc.ByTask)

	out := &Outcome{
		Allocation: alloc,
		Payments:   make([]float64, in.NumPhones()),
		Welfare:    alloc.Welfare(in),
	}
	var sc oracleScratch
	for i, task := range run.phoneTask {
		if task != NoTask {
			out.Payments[i] = oracleCritical(in, &idx, PhoneID(i), alloc.WonAt[i], &sc)
		}
	}
	return out, nil
}

// heapEntry is one pooled phone. It copies the bid's claimed cost and
// departure, so ordering and the departed check read only the entry.
type heapEntry struct {
	cost float64
	dep  int32
	id   int32
}

// less orders entries by (claimed cost, phone ID). The deterministic ID
// tiebreak makes this a strict total order, which keeps runs
// reproducible and the pop sequence independent of the heap's shape.
func (e heapEntry) less(f heapEntry) bool {
	if e.cost != f.cost {
		return e.cost < f.cost
	}
	return e.id < f.id
}

// costHeap is a 4-ary min-heap of pooled phones ordered by heapEntry.less.
// Node i's children are 4i+1..4i+4: with 16-byte entries the four
// siblings span 64 bytes, one cache line's worth, and the tree is half
// as deep as a binary heap's.
type costHeap struct {
	items []heapEntry
	// base is the length compact left behind; it filters again once
	// the heap has doubled past it.
	base int
}

func (h *costHeap) len() int { return len(h.items) }

// push adds bid b's phone to the pool.
func (h *costHeap) push(b *Bid) {
	e := heapEntry{cost: b.Cost, dep: int32(b.Departure), id: int32(b.Phone)}
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = e
}

// down sifts e into the hole at node i: smaller children move up until
// e fits.
func (h *costHeap) down(i int, e heapEntry) {
	items := h.items
	n := len(items)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if items[c].less(items[small]) {
				small = c
			}
		}
		if !items[small].less(e) {
			break
		}
		items[i] = items[small]
		i = small
	}
	items[i] = e
}

func (h *costHeap) pop() PhoneID {
	top := h.items[0]
	last := len(h.items) - 1
	e := h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0, e)
	}
	return PhoneID(top.id)
}

// popEligible pops the cheapest phone still active in slot t,
// permanently discarding departed entries on the way (lazy deletion: a
// departed phone can never become eligible again).
func (h *costHeap) popEligible(t Slot) PhoneID {
	for h.len() > 0 {
		dep := Slot(h.items[0].dep)
		if p := h.pop(); dep >= t {
			return p
		}
	}
	return NoPhone
}

// peekEligible reports the phone popEligible would return next,
// discarding departed entries but leaving the survivor in place.
func (h *costHeap) peekEligible(t Slot) PhoneID {
	for h.len() > 0 {
		if e := h.items[0]; Slot(e.dep) >= t {
			return PhoneID(e.id)
		}
		h.pop()
	}
	return NoPhone
}

// popUsable pops the cheapest phone active in slot t that holds no task
// in phoneTask and that lifecycle c (nil: none) does not block. On top
// of popEligible's lazy deletion it discards the unusable entries: a won
// task and a lifecycle block (a re-allocated winner drafted while still
// pooled, a defaulted phone) are both permanent, so no later pop could
// return them either.
func (h *costHeap) popUsable(t Slot, phoneTask []TaskID, c *completions) PhoneID {
	for {
		p := h.popEligible(t)
		if p == NoPhone || (phoneTask[p] == NoTask && !c.blocked(p)) {
			return p
		}
	}
}

// peekUsable reports the phone popUsable would return next, discarding
// unusable entries but leaving the survivor in place.
func (h *costHeap) peekUsable(t Slot, phoneTask []TaskID, c *completions) PhoneID {
	for {
		p := h.peekEligible(t)
		if p == NoPhone || (phoneTask[p] == NoTask && !c.blocked(p)) {
			return p
		}
		h.pop()
	}
}

// compact is the departed-entry discard of popEligible done in bulk, at
// the end of slot t: once the heap has doubled since the last compaction
// (and holds at least 64 entries), it drops every entry departed by t
// and re-heapifies bottom-up in O(n). A compaction of n entries follows
// at least n/2 pushes, so its cost is amortized O(1) per push, and
// between compactions the heap holds under twice what the last one kept
// (or under 64). Dropped entries could never be popped as eligible
// again, and the order is a strict total order, so every later pop is
// unchanged.
func (h *costHeap) compact(t Slot) {
	if n := len(h.items); n < 64 || n < 2*h.base {
		return
	}
	kept := h.items[:0]
	for _, e := range h.items {
		if Slot(e.dep) > t {
			kept = append(kept, e)
		}
	}
	h.items, h.base = kept, len(kept)
	if len(kept) < 2 {
		return // (0-2)/4 truncates to 0: the loop below needs a parent
	}
	for i := (len(kept) - 2) / 4; i >= 0; i-- {
		h.down(i, kept[i])
	}
}
