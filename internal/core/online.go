package core

import (
	"fmt"
	"time"
)

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
// Payments are computed by a PaymentEngine. The default incremental
// cascade engine prices all winners from the single baseline run
// (docs/THEORY.md §5); the literal per-winner re-run of Algorithm 2 is
// available as OraclePayments, the reference the differential tests
// check the cascade against. Both return bit-identical payments.
//
// Reserve price: when Instance.AllocateAtLoss is false (the default),
// bids with cost ≥ ν never win, and a winner whose removal would leave a
// task unserved is paid the reserve ν (its critical value under the
// reserve). When AllocateAtLoss is true the paper's unbounded-scarcity
// case is capped at max(ν, b_i); the paper implicitly assumes phones are
// abundant, so this cap is a documented boundary-condition choice.
type OnlineMechanism struct {
	// Payments selects the critical-value payment engine. Nil uses the
	// incremental CascadePayments engine.
	Payments PaymentEngine
	// Metrics instruments Run (latency histograms, engine counters).
	// Nil falls back to the process default installed with
	// SetDefaultMetrics; if that is nil too, instrumentation is off and
	// the hot path stays allocation-free.
	Metrics *Metrics
}

// Name implements Mechanism. Explicitly configured engines are suffixed
// ("online-greedy+oracle") so ablation tables stay distinguishable.
func (on *OnlineMechanism) Name() string {
	if on.Payments != nil {
		return "online-greedy+" + on.Payments.Name()
	}
	return "online-greedy"
}

func (on *OnlineMechanism) engine() PaymentEngine {
	if on.Payments != nil {
		return on.Payments
	}
	return CascadePayments
}

// Run implements Mechanism by driving the greedy allocator across the
// whole round and then pricing every winner with the payment engine.
// The hot path reuses pooled scratch (arrivals index, allocation pool,
// cascade state), so steady-state runs allocate only the returned
// Outcome. Safe for concurrent use.
func (on *OnlineMechanism) Run(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("online mechanism: %w", err)
	}
	met := on.Metrics
	if met == nil {
		met = defaultMetrics.Load()
	}
	var start time.Time
	if met != nil {
		start = time.Now()
	}
	scratchPoolGets.Add(1)
	sc := mechPool.Get().(*mechScratch)
	defer mechPool.Put(sc)
	sc.idx.build(in)

	// The baseline greedy writes winners straight into the outcome's
	// allocation arrays; only the cascade side state is pooled.
	alloc := NewAllocation(in.NumTasks(), in.NumPhones())
	run := &sc.run
	run.byTask = alloc.ByTask
	run.phoneTask = alloc.ByPhone
	run.wonAt = alloc.WonAt
	run.runnerUp = resize(run.runnerUp, in.NumTasks())
	run.resetSlots(in.Slots)
	sc.heap = runBaseline(in, &sc.idx, run, sc.heap, in.Slots)

	if met != nil {
		met.SlotAllocSeconds.Observe(time.Since(start).Seconds())
		start = time.Now()
	}

	out := &Outcome{
		Allocation: alloc,
		Payments:   make([]float64, in.NumPhones()),
		Welfare:    alloc.Welfare(in),
	}
	sc.q.in, sc.q.run, sc.q.idx, sc.q.m = in, run, &sc.idx, met
	on.engine().priceAll(&sc.q, out.Payments)
	if met != nil {
		met.PaymentSeconds.Observe(time.Since(start).Seconds())
	}

	// Unhook the escaping outcome and instance before pooling the scratch.
	sc.q.in, sc.q.run, sc.q.idx, sc.q.m = nil, nil, nil, nil
	run.byTask, run.phoneTask, run.wonAt = nil, nil, nil
	return out, nil
}

// costHeap is a binary min-heap of phone IDs ordered by (claimed cost,
// phone ID). The deterministic ID tiebreak keeps runs reproducible.
type costHeap struct {
	bids  []Bid
	items []PhoneID
}

func (h *costHeap) len() int { return len(h.items) }

func (h *costHeap) less(a, b PhoneID) bool {
	if h.bids[a].Cost != h.bids[b].Cost {
		return h.bids[a].Cost < h.bids[b].Cost
	}
	return a < b
}

func (h *costHeap) push(p PhoneID) {
	h.items = append(h.items, p)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *costHeap) pop() PhoneID {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.less(h.items[l], h.items[small]) {
			small = l
		}
		if r < len(h.items) && h.less(h.items[r], h.items[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// popEligible pops the cheapest phone still active in slot t,
// permanently discarding departed entries on the way (lazy deletion: a
// departed phone can never become eligible again).
func (h *costHeap) popEligible(t Slot) PhoneID {
	for h.len() > 0 {
		p := h.pop()
		if h.bids[p].Departure >= t {
			return p
		}
	}
	return NoPhone
}

// peekEligible reports the phone popEligible would return next,
// discarding departed entries but leaving the survivor in place.
func (h *costHeap) peekEligible(t Slot) PhoneID {
	for h.len() > 0 {
		if p := h.items[0]; h.bids[p].Departure >= t {
			return p
		}
		h.pop()
	}
	return NoPhone
}
