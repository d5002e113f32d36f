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
// with core.OnlineAuction, and its round state is a core.Ledger: the
// clock, bids, tasks, allocation and the cost-ordered pool, admitted
// and assembled by the same rules as core.OnlineAuction's. On top of it
// the Auction gates each draw through the stage threshold and the
// cumulative allowance, and pays each winner its exact counterfactual
// critical value (see criticalValue), capped at the stage threshold
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

	stage int // current stage, 0 before the first Step

	byDeparture [][]core.PhoneID

	// samples[k] is the ascending sample of the costs that arrived before
	// stage k, built once when stage k opens, and rawThr[k] the engine's
	// threshold on it. exclThr[k][r], computed on first use and NaN
	// until then, is the threshold on samples[k] less its element of
	// rank r, the first of its value: the exclude-self gate of every
	// phone of that cost. The samples hold the costs of phones
	// 0..sampled−1 (IDs follow arrival order, so a stage's arrivals are a
	// run of IDs).
	samples [][]float64
	rawThr  []float64
	exclThr [][]float64
	sampled int

	reserved float64   // Σ committed caps; never exceeds the budget
	capAt    []float64 // per phone: payment cap reserved at win (0: no win)

	// The observed round's history, which replays read.
	tasksAt    []int       // per slot: tasks announced
	stageAt    []int       // per slot: the stage covering it
	reservedAt []float64   // per slot: reserved once its allocation ends
	dropped    []core.Slot // per phone: slot the posted-price gate discarded it (0: never)

	// Counterfactual critical-value cache: critVal[i] is valid while the
	// clock still reads critNow[i], and for good once settled[i] is set:
	// i has been priced through its departure, so its amount is final.
	// Replays keep none of these per-phone records: they never settle.
	critVal []float64
	critNow []core.Slot
	settled []bool

	trackDepartures bool
	replay          bool // restoring: re-derive state, skip settlement
	metrics         *core.Metrics
	inst            *Metrics    // budget observability (nil disables)
	tracer          *obs.Tracer // budget_stage events (nil disables)

	excl  []float64 // exclude-self scratch
	batch []float64 // stage-opening scratch: the closed stage's costs

	// Counterfactual pricing scratch, built on first use (see
	// winsWithBid). prefix is the observed round rewound to the close of
	// the slot before a priced winner's arrival; probe copies it and
	// replays the rest with the winner's report replaced.
	prefix   *core.Ledger
	probe    *Auction
	arriving []core.StreamBid

	// grid holds the sorted, duplicate-free critical-value candidates of
	// every winner priced through slot gridUntil (0: none yet): ν, the
	// costs of phones 0..gridPhones−1 and the breakpoints of stages
	// 1..gridStages (see gridThrough). gridAdd and gridSpare are scratch.
	grid, gridAdd, gridSpare []float64
	gridUntil                core.Slot
	gridPhones, gridStages   int

	// A replay's view of the observed round. src is the live auction it
	// replays (nil on a live auction). Its stages below ownFrom hold only
	// observed costs, so it reads their samples, thresholds and
	// exclude-self table from src; from ownFrom on a stage's sample holds
	// the watched phone's replaced report and is the replay's own.
	src     *Auction
	ownFrom int

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
	stageAt := make([]int, m+1)
	for k, from := 1, core.Slot(1); k <= stages; k++ {
		for ; from <= stageEnd(m, k, stages); from++ {
			stageAt[from] = k
		}
	}
	return &Auction{
		ledger:      l,
		budget:      budget,
		eng:         eng,
		stages:      stages,
		byDeparture: make([][]core.PhoneID, m+1),
		samples:     make([][]float64, stages+1),
		rawThr:      make([]float64, stages+1),
		exclThr:     make([][]float64, stages+1),
		tasksAt:     make([]int, m+1),
		stageAt:     stageAt,
		reservedAt:  make([]float64, m+1),
		ownFrom:     stages + 1,
		watch:       core.NoPhone,
	}, nil
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
func (a *Auction) Now() core.Slot { return a.ledger.Now() }

// Done reports whether all slots have been processed.
func (a *Auction) Done() bool { return a.ledger.Done() }

// openStages advances the stage clock to cover slot t, building each
// newly opened stage's sample and raw threshold where they are a's own:
// every stage of a live auction, and a probe's stages from ownFrom on.
func (a *Auction) openStages(t core.Slot) {
	for a.stage < a.stages && (a.stage == 0 || stageEnd(a.ledger.Slots(), a.stage, a.stages) < t) {
		a.stage++
		k := a.stage
		switch {
		case a.src == nil:
			a.observeStage(k)
		case k >= a.ownFrom:
			a.replaceStage(k)
		}
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

// observeStage builds live stage k's sample, merging the costs of the
// phones that arrived in stage k−1 into stage k−1's, and its raw
// threshold. The ledger has admitted no phone of a later stage yet.
func (a *Auction) observeStage(k int) {
	if k > 1 {
		bids, end := a.ledger.Bids(), stageEnd(a.ledger.Slots(), k-1, a.stages)
		a.batch = a.batch[:0]
		for ; a.sampled < len(bids) && bids[a.sampled].Arrival <= end; a.sampled++ {
			a.batch = append(a.batch, bids[a.sampled].Cost)
		}
		prev := a.samples[k-1]
		a.samples[k] = mergeSorted(make([]float64, 0, len(prev)+len(a.batch)), prev, a.batch)
	}
	a.rawThr[k] = a.eng.Threshold(allowanceAt(a.budget, k, a.stages), a.ledger.Value(), a.samples[k])
	a.exclThr[k] = make([]float64, len(a.samples[k]))
	for r := range a.exclThr[k] {
		a.exclThr[k][r] = math.NaN()
	}
}

// replaceStage builds probe a's own stage k: the observed sample with
// the watched phone's cost replaced by its probed report, and its raw
// threshold.
func (a *Auction) replaceStage(k int) {
	c, b := a.src.ledger.Bids()[a.watch].Cost, a.ledger.Bids()[a.watch].Cost
	a.samples[k] = replaced(a.samples[k][:0], a.src.samples[k], c, b)
	a.rawThr[k] = a.eng.Threshold(allowanceAt(a.budget, k, a.stages), a.ledger.Value(), a.samples[k])
}

// observed returns the live auction whose round a replays (a itself
// when live).
func (a *Auction) observed() *Auction {
	if a.src != nil {
		return a.src
	}
	return a
}

// effThreshold returns the gate applied to phone i in the current
// stage: the running minimum over stages j ≤ stage of the raw
// thresholds, each recomputed on the stage sample with i's own cost
// excluded wherever it appears. The result is independent of i's
// report (exclusion removes the cost; arrivals of others fix the
// samples) and non-increasing in the stage, so a delayed arrival can
// never buy a higher cap.
//
// Wherever the sample less i's cost holds only observed costs, the
// observed round's exclude-self table has the threshold: on every
// stage of a live auction and on a probe's stages below ownFrom; and
// for the watched phone on every stage, since removing its probed
// report leaves the observed sample less its cost.
func (a *Auction) effThreshold(i core.PhoneID) float64 {
	o := a.observed()
	arrived := o.stageAt[a.ledger.Bids()[i].Arrival]
	eff := math.Inf(1)
	for j := 1; j <= a.stage; j++ {
		thr := o.rawThr[j]
		if j >= a.ownFrom {
			thr = a.rawThr[j] // a probe's own stage
		}
		if arrived < j { // i's cost is in stage j's sample: re-estimate without it
			if j < a.ownFrom || i == a.watch {
				thr = o.exclThreshold(j, o.ledger.Bids()[i].Cost)
			} else {
				thr = a.eng.Threshold(allowanceAt(a.budget, j, a.stages), a.ledger.Value(), a.exclude(a.samples[j], a.ledger.Bids()[i].Cost))
			}
		}
		if thr < eff {
			eff = thr
		}
	}
	return eff
}

// exclThreshold returns live stage k's threshold on its sample with one
// instance of cost c removed, from the exclude-self table.
func (a *Auction) exclThreshold(k int, c float64) float64 {
	sample := a.samples[k]
	r := sort.SearchFloat64s(sample, c)
	if r >= len(sample) || sample[r] != c {
		return a.rawThr[k] // not present (cost mutated externally); fail open
	}
	if math.IsNaN(a.exclThr[k][r]) {
		a.exclThr[k][r] = a.eng.Threshold(allowanceAt(a.budget, k, a.stages), a.ledger.Value(), a.exclude(sample, c))
	}
	return a.exclThr[k][r]
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
	t, err := a.ledger.Advance(arriving, numTasks)
	if err != nil {
		return nil, fmt.Errorf("budget auction: %w", err)
	}
	a.openStages(t)
	a.tasksAt[t] = numTasks
	res := &core.SlotResult{Slot: t}
	var start time.Time
	if a.metrics != nil {
		start = time.Now()
	}

	a.allocate(arriving, numTasks, res)

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

// allocate enters the bids the ledger admitted for the open slot,
// arriving, into the stage samples, and gates numTasks tasks through the
// stage threshold and the cumulative allowance, recording joins,
// assignments, and unserved tasks into res.
func (a *Auction) allocate(arriving []core.StreamBid, numTasks int, res *core.SlotResult) {
	t := a.ledger.Now()
	first := core.PhoneID(a.ledger.NumPhones() - len(arriving))
	for k, sb := range arriving {
		id := first + core.PhoneID(k)
		res.Joined = append(res.Joined, id)
		if a.src == nil {
			a.trackPricing(id, sb.Departure)
		}
		if id == a.watch && !a.ledger.Poolable(sb.Cost) {
			a.watchLost = true // refused by the reserve price
		}
	}

	allowance := allowanceAt(a.budget, a.stage, a.stages)
	for k := 0; k < numTasks; k++ {
		id := a.ledger.AddTask()
		winner := a.ledger.PopUsable()
		if winner == core.NoPhone {
			res.Unserved++
			continue
		}
		eff := a.effThreshold(winner)
		if a.ledger.Bids()[winner].Cost > eff {
			// Posted-price gate. Effective thresholds never increase, so the
			// phone can never clear a later gate either: discard it (like the
			// heap's lazy deletion) and leave the task unserved rather than
			// skipping to a pricier phone, which would let a high report
			// steer tasks to rivals and muddy the critical-value boundary.
			if winner == a.watch {
				a.watchLost = true
			}
			if a.src == nil {
				a.dropped[winner] = t
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
			a.ledger.Repool(winner)
			res.Unserved++
			if a.inst != nil {
				a.inst.AllowanceRejects.Inc()
			}
			continue
		}
		a.ledger.RecordWin(id, winner, t)
		if a.src == nil {
			a.capAt[winner] = eff
		}
		a.reserved += eff
		res.Assignments = append(res.Assignments, core.Assignment{Task: id, Phone: winner, Slot: t})
		if a.inst != nil {
			a.inst.Wins.Inc()
			a.inst.Remaining.Set(a.Remaining())
		}
	}
	if a.src == nil {
		a.reservedAt[t] = a.reserved
	}
}

// trackPricing extends the cap, discard, settlement and payment-cache
// state to phone id, departing in slot departure.
func (a *Auction) trackPricing(id core.PhoneID, departure core.Slot) {
	a.capAt = append(a.capAt, 0)
	a.dropped = append(a.dropped, 0)
	a.critVal = append(a.critVal, 0)
	a.critNow = append(a.critNow, 0)
	a.settled = append(a.settled, false)
	a.byDeparture[departure] = append(a.byDeparture[departure], id)
}

// settle finalizes payments for winners departing in slot t at their
// exact counterfactual critical value, capped at the reserved stage
// threshold; pricing a winner in its departure slot settles it.
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
		res.Payments = append(res.Payments, core.PaymentNotice{Phone: ph, Amount: a.criticalValue(ph)})
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
// algebraic threshold boundary and shifting the settled amount). So an
// amount priced through the departure is final: the winner is settled,
// and never priced again.
func (a *Auction) criticalValue(i core.PhoneID) float64 {
	now := a.ledger.Now()
	if a.settled[i] || a.critNow[i] == now {
		return a.critVal[i]
	}
	until := a.pricedThrough(i)
	amount := a.searchCritical(i, func(b float64) bool { return a.winsWithBid(i, b, until) })
	a.critVal[i], a.critNow[i] = amount, now
	a.settled[i] = until == a.ledger.Bids()[i].Departure
	return amount
}

// pricedThrough returns the last slot of phone i's observation window
// the auction has seen: its departure, or the clock if earlier.
func (a *Auction) pricedThrough(i core.PhoneID) core.Slot {
	return min(a.ledger.Bids()[i].Departure, a.ledger.Now())
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
	lo := a.ledger.Bids()[i].Cost
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
// between lo and hi, ascending and duplicate-free. lo is i's own bid, so
// i's cost is never among them. The slice is a range of the grid shared
// by every winner priced through the same slot: read it only, and only
// until the next call.
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
	a.gridThrough(a.pricedThrough(i))
	g := a.grid
	from := sort.Search(len(g), func(k int) bool { return g[k] > lo })
	to := sort.Search(len(g), func(k int) bool { return g[k] >= hi })
	return g[from:max(from, to)]
}

// gridThrough brings the grid to that of the winners priced through slot
// until: ν, the costs of the phones arrived by then, and the breakpoints
// of the stages opened by then, sorted and duplicate-free. Once the
// clock has reached until, those phones and stage samples are fixed, so
// the grid depends on until alone, and a later until only merges in what
// it adds; an earlier one rebuilds it.
func (a *Auction) gridThrough(until core.Slot) {
	if until == a.gridUntil {
		return
	}
	add := a.gridAdd[:0]
	if until < a.gridUntil || a.gridUntil == 0 {
		a.grid, a.gridPhones, a.gridStages = a.grid[:0], 0, 0
		add = append(add, a.ledger.Value())
	}
	bids := a.ledger.Bids()
	for ; a.gridPhones < len(bids) && bids[a.gridPhones].Arrival <= until; a.gridPhones++ {
		add = append(add, bids[a.gridPhones].Cost)
	}
	m := a.ledger.Slots()
	for k := a.gridStages + 1; k <= a.stages && (k == 1 || stageEnd(m, k-1, a.stages) < until); k++ {
		add = a.eng.Breakpoints(add, allowanceAt(a.budget, k, a.stages), len(a.samples[k]))
		a.gridStages = k
	}
	g := mergeSorted(a.gridSpare[:0], a.grid, add)
	uniq := g[:0]
	for _, c := range g {
		if len(uniq) == 0 || c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	a.grid, a.gridSpare, a.gridAdd, a.gridUntil = uniq, a.grid, add, until
}

// winsWithBid reports whether phone i wins a task when the round
// observed through slot until is replayed, allocation only, with i's
// reported cost replaced by b. The replay is deterministic and covers
// the full mechanism: stage layout, exclude-self thresholds, both
// gates, and heap order. It is the same replay as stepping a fresh
// auction from slot 1 (the differential test holds it to that), made
// cheaper four ways:
//
//   - Rewind. Before i arrives nothing can depend on its report, so
//     the replay's state at the close of slot arrival−1 is the observed
//     round's, which is final once that slot closes. The prefix ledger
//     is rewound to it (core.Ledger.Rewind, with the slots the
//     posted-price gate dropped phones in), and the stage and reserved
//     amount are read from the per-slot records. The prefix is rewound
//     again only when a winner of another arrival slot is priced; every
//     probe resumes from a copy of it.
//   - Observed stage state. A stage sample that holds only observed
//     costs — a probe's stages up to i's arrival stage — is the live
//     round's own: the replay reads its sample, raw threshold and
//     exclude-self table instead of rebuilding them. It never changes
//     them; it only fills in a table entry first needed in a replay,
//     with the value the live round would compute.
//   - Early exit. A win is never revoked, and a phone refused by the
//     reserve or discarded by the posted-price gate never returns to
//     the pool, so the probe stops as soon as either happens.
//   - Reused storage. The prefix and the probe are overwritten in place
//     rather than built per probe, and the probe admits the replayed
//     bids without re-validating them.
func (a *Auction) winsWithBid(i core.PhoneID, b float64, until core.Slot) bool {
	if a.probe == nil {
		a.prefix, a.probe = new(core.Ledger), a.newReplay()
		a.prefix.Rewind(a.ledger, 0, nil)
	}
	arrival := a.ledger.Bids()[i].Arrival
	s := arrival - 1
	if a.prefix.Now() != s {
		a.prefix.Rewind(a.ledger, s, a.dropped)
	}
	cf := a.probe
	cf.ledger.CopyFrom(a.prefix)
	cf.stage, cf.reserved = a.stageAt[s], a.reservedAt[s]
	cf.watch, cf.watchLost = i, false
	cf.ownFrom = a.stageAt[arrival] + 1
	for cf.Now() < until {
		a.replaySlot(cf, i, b)
		if cf.ledger.WonAt(i) != 0 {
			return true
		}
		if cf.watchLost {
			return false
		}
	}
	return false
}

// newReplay returns an empty allocation-only replay of a's round.
func (a *Auction) newReplay() *Auction {
	l := new(core.Ledger)
	l.Rewind(a.ledger, 0, nil)
	return &Auction{
		ledger: l, budget: a.budget, eng: a.eng, stages: a.stages,
		samples: make([][]float64, a.stages+1),
		rawThr:  make([]float64, a.stages+1),
		src:     a,
		ownFrom: a.stages + 1,
		watch:   core.NoPhone,
	}
}

// replaySlot steps replay cf through its next slot of a's observed
// round, with phone i's reported cost replaced by b (i = NoPhone: as
// observed).
func (a *Auction) replaySlot(cf *Auction, i core.PhoneID, b float64) {
	t := cf.Now() + 1
	a.arriving = a.arriving[:0]
	bids := a.ledger.Bids()
	for j := cf.ledger.NumPhones(); j < len(bids) && bids[j].Arrival == t; j++ {
		c := bids[j].Cost
		if core.PhoneID(j) == i {
			c = b
		}
		a.arriving = append(a.arriving, core.StreamBid{Departure: bids[j].Departure, Cost: c})
	}
	cf.ledger.Readmit(a.arriving, a.tasksAt[t])
	cf.openStages(t)
	cf.res = core.SlotResult{Slot: t, Joined: cf.res.Joined[:0], Assignments: cf.res.Assignments[:0]}
	cf.allocate(a.arriving, a.tasksAt[t], &cf.res)
}

// Outcome assembles the round outcome so far: the ledger's allocation
// with every winner paid its threshold-capped counterfactual critical
// value. Settled payments are final and copied from the record; only
// undeparted winners are priced. Total payments never exceed the
// budget.
func (a *Auction) Outcome() *core.Outcome {
	out := a.ledger.Outcome()
	for i := range out.Payments {
		if ph := core.PhoneID(i); a.ledger.WonAt(ph) != 0 {
			out.Payments[i] = a.criticalValue(ph)
		}
	}
	return out
}

// Standing implements core.Auction from the settlement record. A
// winner is settled when its departure slot prices it, or, for one
// that departed before a checkpoint, by Restore.
func (a *Auction) Standing(p core.PhoneID) (task core.TaskID, won core.Slot, paid float64, settled bool) {
	if _, ok := a.ledger.Bid(p); !ok {
		return core.NoTask, 0, 0, false
	}
	if a.settled[p] {
		paid = a.critVal[p]
	}
	return a.ledger.Task(p), a.ledger.WonAt(p), paid, a.settled[p]
}

// Bid returns admitted phone p's bid; ok is false for any other ID.
func (a *Auction) Bid(p core.PhoneID) (core.Bid, bool) { return a.ledger.Bid(p) }

// Instance returns a copy of the bids and tasks accumulated so far.
func (a *Auction) Instance() *core.Instance { return a.ledger.Instance() }

var _ core.Auction = (*Auction)(nil)
