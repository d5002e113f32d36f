package budget

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
)

// Auction drives the budgeted online mechanism slot by slot. It
// implements core.Auction, so the platform hosts it interchangeably
// with core.OnlineAuction; allocation decisions are recorded into a
// core.Ledger and winners are paid their exact counterfactual critical
// value (see criticalValue), capped per winner at the stage threshold
// reserved for it. Unlike core.OnlineAuction it has no completion
// lifecycle (Complete/Default), which is why the platform refuses a
// budgeted round with a completion deadline.
//
// Like core.OnlineAuction, an Auction is not safe for concurrent use:
// one goroutine calls Step.
type Auction struct {
	ledger *core.Ledger
	budget float64
	eng    Engine
	stages int // K

	pricer *core.Pricer

	now   core.Slot
	stage int // current stage, 0 before the first Step

	pool        poolHeap
	byDeparture [][]core.PhoneID

	// arrivalStage[i] is the stage phone i's bid arrived in; stageCosts[k]
	// the costs observed during stage k; samples[k] the ascending merge of
	// stageCosts[1..k-1], built once when stage k opens.
	arrivalStage []int
	stageCosts   [][]float64
	samples      [][]float64
	rawThr       []float64 // full-sample raw threshold per opened stage

	reserved float64   // Σ committed caps; never exceeds the budget
	capAt    []float64 // per phone: payment cap reserved at win (0: no win)

	// Counterfactual critical-value cache: critVal[i] is valid while the
	// clock still reads critNow[i]. settled[i] marks executed payments,
	// which Outcome treats as final.
	critVal []float64
	critNow []core.Slot
	settled []bool

	trackDepartures bool
	replay          bool // restoring: re-derive state, skip settlement
	metrics         *core.Metrics
	inst            *Metrics    // budget observability (nil disables)
	tracer          *obs.Tracer // budget_stage events (nil disables)

	excl []float64 // exclude-self scratch
}

// New creates a budgeted auction of m slots with per-task value ν and
// round budget B. A nil engine selects StageSampling.
func New(m core.Slot, value float64, allocateAtLoss bool, budget float64, eng Engine) (*Auction, error) {
	if err := ValidateBudget(budget); err != nil {
		return nil, err
	}
	l, err := core.NewLedger(m, value, allocateAtLoss)
	if err != nil {
		return nil, fmt.Errorf("budget auction: %w", err)
	}
	if eng == nil {
		eng = StageSampling{}
	}
	stages := NumStages(m)
	a := &Auction{
		ledger:      l,
		budget:      budget,
		eng:         eng,
		stages:      stages,
		byDeparture: make([][]core.PhoneID, m+1),
		stageCosts:  make([][]float64, stages+1),
		samples:     make([][]float64, stages+1),
		rawThr:      make([]float64, stages+1),
	}
	a.pool.ledger = l
	a.pricer = l.NewPricer(core.CascadePayments, nil)
	return a, nil
}

// Budget returns the round budget B.
func (a *Auction) Budget() float64 { return a.budget }

// Reserved returns the cumulative spend committed so far (Σ caps of the
// winners selected so far). Payments never exceed it.
func (a *Auction) Reserved() float64 { return a.reserved }

// Remaining returns the uncommitted budget B − Reserved().
func (a *Auction) Remaining() float64 { return a.budget - a.reserved }

// Engine returns the threshold engine.
func (a *Auction) Engine() Engine { return a.eng }

// Stage returns the current stage index (1-based; 0 before the first
// Step) and the stage count K.
func (a *Auction) Stage() (stage, stages int) { return a.stage, a.stages }

// BudgetExhausted reports whether the round's budget is fully
// committed: no further win can be reserved. The platform surfaces it
// as a typed bid rejection.
func (a *Auction) BudgetExhausted() bool {
	return a.Remaining() <= 1e-12*a.budget
}

// SetMetrics instruments the hot path with the core latency histograms
// (nil disables).
func (a *Auction) SetMetrics(m *core.Metrics) {
	a.metrics = m
	a.pricer = a.ledger.NewPricer(core.CascadePayments, m)
}

// SetInstruments attaches the budget observability bundle (remaining
// gauge, stage/threshold gauges, gate counters). Nil disables.
func (a *Auction) SetInstruments(m *Metrics) { a.inst = m }

// SetTracer emits a budget_stage trace event at each stage opening.
// Nil disables.
func (a *Auction) SetTracer(tr *obs.Tracer) { a.tracer = tr }

// TrackDepartures toggles SlotResult.Departed population.
func (a *Auction) TrackDepartures(on bool) { a.trackDepartures = on }

// Now returns the last processed slot (0 before the first Step).
func (a *Auction) Now() core.Slot { return a.now }

// Done reports whether all slots have been processed.
func (a *Auction) Done() bool { return a.now >= a.ledger.Slots() }

// openStages advances the stage clock to cover slot t, building each
// newly opened stage's sample and raw threshold.
func (a *Auction) openStages(t core.Slot) {
	for a.stage < a.stages && (a.stage == 0 || stageEnd(a.ledger.Slots(), a.stage, a.stages) < t) {
		a.stage++
		k := a.stage
		if k == 1 {
			a.samples[k] = nil
		} else {
			a.samples[k] = mergeSorted(a.samples[k-1], a.stageCosts[k-1])
		}
		a.rawThr[k] = a.eng.Threshold(allowanceAt(a.budget, k, a.stages), a.ledger.Value(), a.samples[k])
		if a.inst != nil {
			a.inst.Stage.Set(int64(k))
			a.inst.StageThreshold.Set(a.rawThr[k])
			a.inst.Remaining.Set(a.Remaining())
		}
		if a.tracer != nil && !a.replay {
			a.tracer.Emit(obs.Event{
				Time: time.Now(), Type: obs.EventBudgetStage, Slot: int(t),
				Phone: -1, Task: -1, Amount: a.rawThr[k],
				Detail: fmt.Sprintf("stage=%d/%d allowance=%.4g threshold=%.4g sample=%d reserved=%.4g",
					k, a.stages, allowanceAt(a.budget, k, a.stages), a.rawThr[k], len(a.samples[k]), a.reserved),
			})
		}
	}
}

// effThreshold returns the gate applied to phone i in the current
// stage: the running minimum over stages j ≤ stage of the raw
// thresholds, each recomputed on the stage sample with i's own cost
// excluded wherever it appears. The result is independent of i's
// report (exclusion removes the cost; arrivals of others fix the
// samples) and non-increasing in the stage, so a delayed arrival can
// never buy a higher cap.
func (a *Auction) effThreshold(i core.PhoneID) float64 {
	c := a.ledger.Bid(i).Cost
	arrived := a.arrivalStage[i]
	eff := math.Inf(1)
	for j := 1; j <= a.stage; j++ {
		thr := a.rawThr[j]
		if arrived < j { // i's cost is in stage j's sample: re-estimate without it
			thr = a.eng.Threshold(allowanceAt(a.budget, j, a.stages), a.ledger.Value(), a.exclude(a.samples[j], c))
		}
		if thr < eff {
			eff = thr
		}
	}
	return eff
}

// exclude returns sample with one instance of cost c removed, reusing
// the auction's scratch buffer.
func (a *Auction) exclude(sample []float64, c float64) []float64 {
	idx := sort.SearchFloat64s(sample, c)
	if idx >= len(sample) || sample[idx] != c {
		return sample // not present (cost mutated externally); fail open
	}
	a.excl = append(a.excl[:0], sample[:idx]...)
	a.excl = append(a.excl, sample[idx+1:]...)
	return a.excl
}

// Step advances the auction one slot: arriving bids join (and enter the
// stage samples), numTasks tasks are announced and gated through the
// stage threshold and the cumulative allowance, and payments are
// finalized for winners departing this slot at their threshold-capped
// critical value.
func (a *Auction) Step(arriving []core.StreamBid, numTasks int) (*core.SlotResult, error) {
	if a.Done() {
		return nil, fmt.Errorf("budget auction: round already complete (%d slots)", a.ledger.Slots())
	}
	if numTasks < 0 {
		return nil, fmt.Errorf("budget auction: negative task count %d", numTasks)
	}
	t := a.now + 1
	for k, sb := range arriving {
		probe := core.Bid{Phone: core.PhoneID(a.ledger.NumPhones() + k), Arrival: t, Departure: sb.Departure, Cost: sb.Cost}
		if err := probe.Validate(a.ledger.Slots()); err != nil {
			return nil, fmt.Errorf("budget auction: %w", err)
		}
	}
	a.now = t
	a.openStages(t)
	res := &core.SlotResult{Slot: t}
	var start time.Time
	if a.metrics != nil {
		start = time.Now()
	}

	for _, sb := range arriving {
		id, err := a.ledger.AddBid(t, sb)
		if err != nil { // unreachable: probes validated above
			return nil, fmt.Errorf("budget auction: %w", err)
		}
		res.Joined = append(res.Joined, id)
		a.arrivalStage = append(a.arrivalStage, a.stage)
		a.stageCosts[a.stage] = append(a.stageCosts[a.stage], sb.Cost)
		a.capAt = append(a.capAt, 0)
		a.critVal = append(a.critVal, 0)
		a.critNow = append(a.critNow, 0)
		a.settled = append(a.settled, false)
		a.byDeparture[sb.Departure] = append(a.byDeparture[sb.Departure], id)
		// Same reserve-price admission as the unbudgeted engines.
		if a.ledger.AllocateAtLoss() || sb.Cost < a.ledger.Value() {
			a.pool.push(id)
		}
	}

	allowance := allowanceAt(a.budget, a.stage, a.stages)
	for k := 0; k < numTasks; k++ {
		id := a.ledger.AddTask(t)
		winner := a.pool.popEligible(t)
		if winner == core.NoPhone {
			a.ledger.RecordUnserved(t)
			res.Unserved++
			continue
		}
		eff := a.effThreshold(winner)
		if a.ledger.Bid(winner).Cost > eff {
			// Posted-price gate. Effective thresholds never increase, so the
			// phone can never clear a later gate either: discard it (like the
			// heap's lazy deletion) and leave the task unserved rather than
			// skipping to a pricier phone, which would let a high report
			// steer tasks to rivals and muddy the critical-value boundary.
			a.ledger.RecordUnserved(t)
			res.Unserved++
			if a.inst != nil {
				a.inst.ThresholdRejects.Inc()
			}
			continue
		}
		if a.reserved+eff > allowance {
			// Allowance gate: the stage's cumulative tranche cannot cover the
			// cap. Later stages have larger allowances, so the phone returns
			// to the pool; the task goes unserved.
			a.pool.push(winner)
			a.ledger.RecordUnserved(t)
			res.Unserved++
			if a.inst != nil {
				a.inst.AllowanceRejects.Inc()
			}
			continue
		}
		runner := a.pool.peekEligible(t)
		a.ledger.RecordWin(id, winner, runner, t)
		a.capAt[winner] = eff
		a.reserved += eff
		res.Assignments = append(res.Assignments, core.Assignment{Task: id, Phone: winner, Slot: t})
		if a.inst != nil {
			a.inst.Wins.Inc()
			a.inst.Remaining.Set(a.Remaining())
		}
	}

	if a.metrics != nil {
		a.metrics.SlotAllocSeconds.Observe(time.Since(start).Seconds())
		start = time.Now()
	}

	a.settle(t, res)

	if a.metrics != nil {
		a.metrics.PaymentSeconds.Observe(time.Since(start).Seconds())
	}
	return res, nil
}

// settle finalizes payments for winners departing in slot t at their
// exact counterfactual critical value, capped at the reserved stage
// threshold.
func (a *Auction) settle(t core.Slot, res *core.SlotResult) {
	if a.replay {
		return // restore replays allocation only; payments are deterministic
	}
	for _, ph := range a.byDeparture[t] {
		if a.trackDepartures {
			res.Departed = append(res.Departed, ph)
		}
		if a.ledger.WonAt(ph) == 0 {
			continue
		}
		amount := a.criticalValue(ph)
		a.settled[ph] = true
		res.Payments = append(res.Payments, core.PaymentNotice{Phone: ph, Amount: amount})
	}
}

// criticalValue computes winner i's payment: the supremum of the
// reported costs with which i would still win a task, capped at the
// stage threshold reserved for it (so Σ payments ≤ Σ caps ≤ B).
//
// The unbudgeted cascade critical value is wrong here: the allowance
// gate makes win/lose depend on heap pop ORDER, so a phone that
// truthfully loses only because a pricier-threshold rival drained the
// stage allowance could underbid, pop first, and collect a cascade
// payment above the true boundary. The only bid-independent quantity
// that prices the full mechanism — both gates, stage layout, pop order
// — is the counterfactual: re-run the round's deterministic allocation
// with i's report replaced and find where win flips to lose.
//
// The win/lose boundary is always a comparison against a report-
// independent quantity: another phone's cost (heap order, cascade
// chains), a stage threshold recomputed without i (both gates), or the
// reserve ν (pool admission). The candidate grid {0, other phones'
// costs, cap, ν} therefore brackets the boundary; a binary search finds
// the bracketing pair and a midpoint probe decides whether the win set
// is closed (pay the winning grid point) or half-open with the
// boundary at the losing point (pay that supremum).
//
// The computation is truncated at i's departure slot: nothing past it
// can change whether i wins, and keeping later arrivals out of the
// grid makes the payment a pure function of i's observation window —
// the same value whether it is computed at settlement or after a
// snapshot restore re-derives it at round end (FuzzBudgetSnapshot
// caught an end-of-round grid refining the bracketing pair around an
// algebraic threshold boundary and shifting the settled amount).
func (a *Auction) criticalValue(i core.PhoneID) float64 {
	if a.critNow[i] == a.now {
		return a.critVal[i]
	}
	cap := a.capAt[i]
	bids := a.ledger.Bids()
	arrivals := a.ledger.TaskArrivals()
	until := bids[i].Departure
	if until > a.now {
		until = a.now
	}

	grid := make([]float64, 0, len(bids)+2)
	grid = append(grid, 0, cap, a.ledger.Value())
	for j := range bids {
		if core.PhoneID(j) != i && bids[j].Arrival <= until {
			grid = append(grid, bids[j].Cost)
		}
	}
	sort.Float64s(grid)
	uniq := grid[:1]
	for _, g := range grid[1:] {
		if g != uniq[len(uniq)-1] {
			uniq = append(uniq, g)
		}
	}
	grid = uniq

	// Winning is monotone: a lower report pops earlier against weakly
	// higher stage thresholds (effective thresholds only decay) and the
	// gates never prefer a pricier report. Binary-search the first
	// losing grid point.
	lose := sort.Search(len(grid), func(k int) bool {
		return !a.winsWithBid(bids, arrivals, until, i, grid[k])
	})
	var amount float64
	switch lose {
	case 0:
		// No winning grid point. Unreachable for a real winner (its own
		// cost wins and 0 ≤ cost); pay the cap so IR cannot break.
		amount = cap
	case len(grid):
		// Every candidate wins, including ν: i is pivotal at the reserve.
		amount = a.ledger.Value()
	default:
		gWin, gLose := grid[lose-1], grid[lose]
		if a.winsWithBid(bids, arrivals, until, i, (gWin+gLose)/2) {
			amount = gLose // half-open win set: the supremum is the losing point
		} else {
			amount = gWin
		}
	}
	amount = math.Min(cap, amount)
	a.critVal[i], a.critNow[i] = amount, a.now
	return amount
}

// winsWithBid re-runs the round observed through slot `until` through a
// fresh allocation-only auction with phone i's reported cost replaced
// by b, and reports whether i wins a task. The replay is deterministic
// and covers the full mechanism: stage layout, exclude-self
// thresholds, both gates, and heap order.
func (a *Auction) winsWithBid(bids []core.Bid, arrivals []core.Slot, until core.Slot, i core.PhoneID, b float64) bool {
	cf, err := New(a.ledger.Slots(), a.ledger.Value(), a.ledger.AllocateAtLoss(), a.budget, a.eng)
	if err != nil { // unreachable: the live auction was built with these
		return false
	}
	cf.replay = true
	bi, ti := 0, 0
	var arriving []core.StreamBid
	for t := core.Slot(1); t <= until; t++ {
		arriving = arriving[:0]
		for ; bi < len(bids) && bids[bi].Arrival == t; bi++ {
			c := bids[bi].Cost
			if core.PhoneID(bi) == i {
				c = b
			}
			arriving = append(arriving, core.StreamBid{Departure: bids[bi].Departure, Cost: c})
		}
		tasks := 0
		for ; ti < len(arrivals) && arrivals[ti] == t; ti++ {
			tasks++
		}
		if _, err := cf.Step(arriving, tasks); err != nil {
			return false // unreachable: the live round accepted this stream
		}
	}
	return cf.ledger.WonAt(i) != 0
}

// Outcome assembles the round outcome so far: the ledger's allocation
// with every winner paid its threshold-capped counterfactual critical
// value. Executed (settled) payments are final; the auction keeps its
// own record of them. Total payments never exceed the budget.
func (a *Auction) Outcome() *core.Outcome {
	out := a.ledger.Outcome(a.pricer)
	for i := range out.Payments {
		ph := core.PhoneID(i)
		if a.ledger.WonAt(ph) == 0 {
			continue
		}
		if a.settled[i] {
			out.Payments[i] = a.critVal[i]
			continue
		}
		out.Payments[i] = a.criticalValue(ph)
	}
	return out
}

// Bid returns admitted phone p's bid; ok is false for any other ID.
func (a *Auction) Bid(p core.PhoneID) (core.Bid, bool) {
	if p < 0 || int(p) >= a.ledger.NumPhones() {
		return core.Bid{}, false
	}
	return a.ledger.Bid(p), true
}

// Instance returns a copy of the bids and tasks accumulated so far.
func (a *Auction) Instance() *core.Instance { return a.ledger.Instance() }

var _ core.Auction = (*Auction)(nil)

// poolHeap is the active-bid pool: a binary min-heap on (claimed cost,
// phone ID) with lazy deletion of departed and unassignable entries —
// the same order and semantics as the sequential engine's heap.
type poolHeap struct {
	ledger *core.Ledger
	items  []core.PhoneID
}

func (h *poolHeap) less(a, b core.PhoneID) bool {
	ca, cb := h.ledger.Bid(a).Cost, h.ledger.Bid(b).Cost
	if ca != cb {
		return ca < cb
	}
	return a < b
}

func (h *poolHeap) push(p core.PhoneID) {
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

func (h *poolHeap) pop() core.PhoneID {
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

// popEligible pops the cheapest phone active in slot t that can still
// take a task, permanently discarding departed or assigned entries.
func (h *poolHeap) popEligible(t core.Slot) core.PhoneID {
	for len(h.items) > 0 {
		p := h.pop()
		if h.ledger.Bid(p).Departure >= t && h.ledger.Assignable(p) {
			return p
		}
	}
	return core.NoPhone
}

// peekEligible reports the phone popEligible would return next,
// discarding dead entries but leaving the survivor in place.
func (h *poolHeap) peekEligible(t core.Slot) core.PhoneID {
	for len(h.items) > 0 {
		p := h.items[0]
		if h.ledger.Bid(p).Departure >= t && h.ledger.Assignable(p) {
			return p
		}
		h.pop()
	}
	return core.NoPhone
}
