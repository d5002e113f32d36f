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

	tasksAt []int // per slot: tasks announced (replays re-read them)

	// Counterfactual critical-value cache: critVal[i] is valid while the
	// clock still reads critNow[i]. settled[i] marks executed payments,
	// which Outcome treats as final. Replays leave these (and
	// byDeparture) empty: they never settle.
	critVal []float64
	critNow []core.Slot
	settled []bool

	trackDepartures bool
	replay          bool // restoring or probing: re-derive state, skip settlement
	metrics         *core.Metrics
	inst            *Metrics    // budget observability (nil disables)
	tracer          *obs.Tracer // budget_stage events (nil disables)

	excl []float64 // exclude-self scratch

	// Counterfactual pricing scratch, built on first use. prefix replays
	// the observed round up to the slot before a priced winner's arrival;
	// probe copies it and replays the rest with the winner's report
	// replaced (see winsWithBid).
	prefix, probe *Auction
	arriving      []core.StreamBid
	grid          []float64

	// Probe bookkeeping on a replay: watch is the phone whose report is
	// replaced (NoPhone otherwise); watchLost is set once it can no
	// longer win — refused by the reserve or discarded by the
	// posted-price gate. res is the reused slot result.
	watch     core.PhoneID
	watchLost bool
	res       core.SlotResult
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
		tasksAt:     make([]int, m+1),
		watch:       core.NoPhone,
	}
	a.pool.ledger = l
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
			a.samples[k] = a.samples[k][:0]
		} else {
			a.samples[k] = mergeSorted(a.samples[k][:0], a.samples[k-1], a.stageCosts[k-1])
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
	a.tasksAt[t] = numTasks
	res := &core.SlotResult{Slot: t}
	var start time.Time
	if a.metrics != nil {
		start = time.Now()
	}

	if err := a.allocate(arriving, numTasks, res); err != nil {
		return nil, err
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

// allocate admits the current slot's arriving bids (into the stage
// samples and, past the reserve, the pool) and gates numTasks tasks
// through the stage threshold and the cumulative allowance, recording
// joins, assignments, and unserved tasks into res.
func (a *Auction) allocate(arriving []core.StreamBid, numTasks int, res *core.SlotResult) error {
	t := a.now
	for _, sb := range arriving {
		id, err := a.ledger.AddBid(t, sb)
		if err != nil { // unreachable: Step validated, replays re-feed an accepted stream
			return fmt.Errorf("budget auction: %w", err)
		}
		res.Joined = append(res.Joined, id)
		a.arrivalStage = append(a.arrivalStage, a.stage)
		a.stageCosts[a.stage] = append(a.stageCosts[a.stage], sb.Cost)
		a.capAt = append(a.capAt, 0)
		if !a.replay {
			a.trackPricing(id, sb.Departure)
		}
		// Same reserve-price admission as the unbudgeted engines.
		if a.ledger.AllocateAtLoss() || sb.Cost < a.ledger.Value() {
			a.pool.push(id)
		} else if id == a.watch {
			a.watchLost = true
		}
	}

	allowance := allowanceAt(a.budget, a.stage, a.stages)
	for k := 0; k < numTasks; k++ {
		id := a.ledger.AddTask(t)
		winner := a.pool.popEligible(t)
		if winner == core.NoPhone {
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
			if winner == a.watch {
				a.watchLost = true
			}
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
			res.Unserved++
			if a.inst != nil {
				a.inst.AllowanceRejects.Inc()
			}
			continue
		}
		a.ledger.RecordWin(id, winner, t)
		a.capAt[winner] = eff
		a.reserved += eff
		res.Assignments = append(res.Assignments, core.Assignment{Task: id, Phone: winner, Slot: t})
		if a.inst != nil {
			a.inst.Wins.Inc()
			a.inst.Remaining.Set(a.Remaining())
		}
	}
	return nil
}

// trackPricing extends the settlement and payment-cache state to phone
// id, departing in slot departure.
func (a *Auction) trackPricing(id core.PhoneID, departure core.Slot) {
	a.critVal = append(a.critVal, 0)
	a.critNow = append(a.critNow, 0)
	a.settled = append(a.settled, false)
	a.byDeparture[departure] = append(a.byDeparture[departure], id)
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
	until := a.pricedThrough(i)
	amount := a.searchCritical(i, func(b float64) bool { return a.winsWithBid(i, b, until) })
	a.critVal[i], a.critNow[i] = amount, a.now
	return amount
}

// pricedThrough returns the last slot of phone i's observation window
// the auction has seen: its departure, or the clock if earlier.
func (a *Auction) pricedThrough(i core.PhoneID) core.Slot {
	return min(a.ledger.Bid(i).Departure, a.now)
}

// searchCritical finds winner i's capped critical value, asking wins
// whether i wins with a given report. Many winners (most, under a
// binding budget) still win at their cap, which settles the payment in
// one probe. Otherwise the boundary lies between i's own bid, which
// wins, and the cap. Winning is monotone: a lower report pops earlier
// against weakly higher stage thresholds (effective thresholds only
// decay) and the gates never prefer a pricier report. So a binary
// search over the candidate grid in between finds the last winning
// point lo and the next point hi (the first losing one, or the cap),
// and the boundary lies in (lo, hi]. It is nearly always at an end:
// closed at lo (the next float up loses: pay lo) or half-open at hi
// (the float just below it wins: pay that supremum). Otherwise it sits
// strictly inside — an algebraic boundary the grid cannot list, such
// as i's own report reappearing in other winners' reserved caps — and
// a bisection over the floats in between pays the largest winning
// report.
//
// Starting from the bid changes nothing while winning is monotone:
// every report below the bid wins too. Sample contamination can break
// monotonicity on rare rounds (i's report moves other phones'
// thresholds, and with them the reserves i competes against), and then
// no payment makes i truthful; starting at the bid still pays at least
// the bid, so individual rationality holds on every round.
func (a *Auction) searchCritical(i core.PhoneID, wins func(b float64) bool) float64 {
	cap := a.capAt[i]
	if wins(cap) {
		return cap // the boundary is at or above the cap
	}
	lo := a.ledger.Bid(i).Cost
	grid := a.candidates(i, lo, cap)
	lose := sort.Search(len(grid), func(k int) bool { return !wins(grid[k]) })
	if lose > 0 {
		lo = grid[lose-1]
	}
	hi := cap // lo wins, hi loses
	if lose < len(grid) {
		hi = grid[lose]
	}
	if up := math.Nextafter(lo, hi); up == hi || !wins(up) {
		return lo
	}
	if down := math.Nextafter(hi, lo); wins(down) {
		return hi
	}
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			return lo
		}
		if wins(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
}

// candidates returns winner i's critical-value candidates strictly
// between lo and hi, ascending and duplicate-free, in the auction's
// reused buffer.
//
// The win/lose boundary is always a comparison against a report-
// independent quantity: another phone's cost (heap order, cascade
// chains), a stage threshold recomputed without i (both gates), or the
// reserve ν (pool admission). A threshold is ν, another phone's cost,
// or one of the engine's Breakpoints for an opened stage's allowance
// and sample size. The grid {ν, other phones' costs, breakpoints}
// therefore holds the boundary, unless i's own report moves a
// quantity it is compared against (searchCritical bisects for those).
func (a *Auction) candidates(i core.PhoneID, lo, hi float64) []float64 {
	until := a.pricedThrough(i)
	g := append(a.grid[:0], a.ledger.Value())
	for j := 0; j < a.ledger.NumPhones(); j++ {
		b := a.ledger.Bid(core.PhoneID(j))
		if b.Arrival > until {
			break // IDs are in arrival order
		}
		if core.PhoneID(j) != i {
			g = append(g, b.Cost)
		}
	}
	m := a.ledger.Slots()
	for k := 1; k <= a.stages && (k == 1 || stageEnd(m, k-1, a.stages) < until); k++ {
		g = a.eng.Breakpoints(g, allowanceAt(a.budget, k, a.stages), len(a.samples[k]))
	}
	a.grid = g
	inside := g[:0]
	for _, c := range g {
		if lo < c && c < hi {
			inside = append(inside, c)
		}
	}
	sort.Float64s(inside)
	uniq := inside[:0]
	for _, c := range inside {
		if len(uniq) == 0 || c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	return uniq
}

// winsWithBid reports whether phone i wins a task when the round
// observed through slot until is replayed, allocation only, with i's
// reported cost replaced by b. The replay is deterministic and covers
// the full mechanism: stage layout, exclude-self thresholds, both
// gates, and heap order. It is the same replay as stepping a fresh
// auction from slot 1 (the differential test holds it to that), made
// cheaper three ways:
//
//   - Shared prefix. Before i arrives nothing can depend on its report,
//     so the prefix scratch auction replays slots 1..arrival−1 once and
//     every probe resumes from a copy of it. Phone IDs follow arrival
//     order, so the winners of one settlement (and Outcome's ID-order
//     walk) only move the prefix forward.
//   - Early exit. A win is never revoked, and a phone refused by the
//     reserve or discarded by the posted-price gate never returns to
//     the pool, so the probe stops as soon as either happens.
//   - Reused storage. Both scratch auctions are reset or overwritten in
//     place rather than built per probe.
func (a *Auction) winsWithBid(i core.PhoneID, b float64, until core.Slot) bool {
	if a.prefix == nil {
		a.prefix, a.probe = a.newReplay(), a.newReplay()
	}
	arrival := a.ledger.Bid(i).Arrival
	if a.prefix.now >= arrival {
		a.prefix.reset()
	}
	for a.prefix.now < arrival-1 {
		if !a.replaySlot(a.prefix, core.NoPhone, 0) {
			return false // unreachable: the live round accepted this stream
		}
	}
	cf := a.probe
	cf.copyFrom(a.prefix)
	cf.watch, cf.watchLost = i, false
	for cf.now < until {
		if !a.replaySlot(cf, i, b) {
			return false // unreachable, as above
		}
		if cf.ledger.WonAt(i) != 0 {
			return true
		}
		if cf.watchLost {
			return false
		}
	}
	return false
}

// newReplay returns an empty allocation-only auction of a's round.
func (a *Auction) newReplay() *Auction {
	cf, err := New(a.ledger.Slots(), a.ledger.Value(), a.ledger.AllocateAtLoss(), a.budget, a.eng)
	if err != nil {
		panic(err) // unreachable: a was built with these parameters
	}
	cf.replay = true
	return cf
}

// replaySlot steps replay cf through its next slot of a's observed
// round, with phone i's reported cost replaced by b (i = NoPhone: as
// observed). It reports false only if the stream is rejected.
func (a *Auction) replaySlot(cf *Auction, i core.PhoneID, b float64) bool {
	t := cf.now + 1
	a.arriving = a.arriving[:0]
	for j := core.PhoneID(cf.ledger.NumPhones()); int(j) < a.ledger.NumPhones(); j++ {
		bid := a.ledger.Bid(j)
		if bid.Arrival != t {
			break
		}
		c := bid.Cost
		if j == i {
			c = b
		}
		a.arriving = append(a.arriving, core.StreamBid{Departure: bid.Departure, Cost: c})
	}
	cf.now = t
	cf.openStages(t)
	cf.res = core.SlotResult{Slot: t, Joined: cf.res.Joined[:0], Assignments: cf.res.Assignments[:0]}
	return cf.allocate(a.arriving, a.tasksAt[t], &cf.res) == nil
}

// reset empties replay a back to before slot 1, keeping its storage.
func (a *Auction) reset() {
	a.ledger.Reset()
	a.now, a.stage, a.reserved = 0, 0, 0
	a.pool.items = a.pool.items[:0]
	a.arrivalStage = a.arrivalStage[:0]
	a.capAt = a.capAt[:0]
	for k := range a.samples {
		a.samples[k] = a.samples[k][:0]
		a.stageCosts[k] = a.stageCosts[k][:0]
		a.rawThr[k] = 0
	}
}

// copyFrom overwrites replay a with replay src's allocation state,
// reusing a's storage. Both replay the same round.
func (a *Auction) copyFrom(src *Auction) {
	a.ledger.CopyFrom(src.ledger)
	a.now, a.stage, a.reserved = src.now, src.stage, src.reserved
	a.pool.items = append(a.pool.items[:0], src.pool.items...)
	a.arrivalStage = append(a.arrivalStage[:0], src.arrivalStage...)
	a.capAt = append(a.capAt[:0], src.capAt...)
	copy(a.rawThr, src.rawThr)
	for k := range a.samples {
		a.samples[k] = append(a.samples[k][:0], src.samples[k]...)
		a.stageCosts[k] = append(a.stageCosts[k][:0], src.stageCosts[k]...)
	}
}

// Outcome assembles the round outcome so far: the ledger's allocation
// with every winner paid its threshold-capped counterfactual critical
// value. Executed (settled) payments are final; the auction keeps its
// own record of them. Total payments never exceed the budget.
func (a *Auction) Outcome() *core.Outcome {
	out := a.ledger.Outcome()
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
