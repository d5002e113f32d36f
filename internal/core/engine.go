package core

import "sync"

// PaymentEngine computes the online mechanism's critical-value payments
// (Algorithm 2) for the winners of a baseline greedy run. All engines
// produce bit-identical payments; they differ only in cost:
//
//   - CascadePayments derives every payment from the baseline run plus
//     per-task runner-up state in O(window + cascade) per winner — no
//     greedy re-runs. This is the default.
//   - OraclePayments is the literal Algorithm 2: one full greedy re-run
//     per winner. It is kept as the reference oracle the differential
//     and fuzz tests check the cascade engine against.
//
// Engines are stateless and safe for concurrent use; the per-call
// scratch lives in the paymentQuery each caller owns.
type PaymentEngine interface {
	// Name returns a short identifier ("cascade", "oracle").
	Name() string
	// price returns winner i's critical payment.
	price(q *paymentQuery, i PhoneID) float64
	// priceAll fills pay[i] for every winner of the baseline run.
	priceAll(q *paymentQuery, pay []float64)
}

// The package-level engine instances. CascadePayments is the default
// used by OnlineMechanism and OnlineAuction when none is selected.
var (
	CascadePayments PaymentEngine = cascadeEngine{}
	OraclePayments  PaymentEngine = oracleEngine{}
)

// resize returns s with length n and every element zeroed, reusing the
// backing array when capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// greedyRun is the outcome of one baseline greedy pass (Algorithm 1)
// plus the side state the cascade engine prices from: each task's
// runner-up at assignment time and per-slot winner-cost and unserved
// tables. Slot-indexed slices are 1-based with index 0 unused.
type greedyRun struct {
	byTask    []PhoneID // task -> winner (NoPhone if unserved)
	phoneTask []TaskID  // phone -> its won task (NoTask if it lost)
	wonAt     []Slot    // phone -> winning slot (0 if it lost)
	runnerUp  []PhoneID // task -> next-cheapest eligible phone when assigned

	unserved []int32   // slot -> tasks left unserved
	max1     []float64 // slot -> highest winner cost
	max1p    []PhoneID // slot -> phone holding max1 (NoPhone if none)
	max2     []float64 // slot -> second-highest winner cost
}

// resetSlots (re)sizes and clears the per-slot tables for an m-slot round.
func (g *greedyRun) resetSlots(m Slot) {
	n := int(m) + 1
	g.unserved = resize(g.unserved, n)
	g.max1 = resize(g.max1, n)
	g.max2 = resize(g.max2, n)
	g.max1p = resize(g.max1p, n)
	for i := range g.max1p {
		g.max1p[i] = NoPhone
	}
}

// initRound (re)sizes the per-phone and per-task state with sentinel
// entries, reusing capacity. Callers that alias these slices to an
// Allocation's arrays skip this and rely on NewAllocation's sentinels.
func (g *greedyRun) initRound(numPhones, numTasks int, m Slot) {
	g.byTask = resize(g.byTask, numTasks)
	for i := range g.byTask {
		g.byTask[i] = NoPhone
	}
	g.phoneTask = resize(g.phoneTask, numPhones)
	for i := range g.phoneTask {
		g.phoneTask[i] = NoTask
	}
	g.wonAt = resize(g.wonAt, numPhones)
	g.runnerUp = resize(g.runnerUp, numTasks)
	g.resetSlots(m)
}

// noteWinner updates slot t's top-2 winner-cost table with phone p's
// cost c. The ">=" keeps max2 correct when costs tie.
func (g *greedyRun) noteWinner(t Slot, p PhoneID, c float64) {
	if c >= g.max1[t] {
		g.max2[t] = g.max1[t]
		g.max1[t], g.max1p[t] = c, p
	} else if c > g.max2[t] {
		g.max2[t] = c
	}
}

// maxExcluding returns the highest winner cost in slot t when phone p's
// win there is discounted.
func (g *greedyRun) maxExcluding(t Slot, p PhoneID) float64 {
	if g.max1p[t] == p {
		return g.max2[t]
	}
	return g.max1[t]
}

// arrivalsIndex groups the phones admitted to the allocation pool by
// claimed arrival slot, CSR-style (one flat array plus offsets), with
// reserve-priced bids (cost ≥ ν, unless AllocateAtLoss) filtered out at
// build time. Built once per instance and shared read-only by every
// greedy pass — the baseline and all oracle re-runs.
type arrivalsIndex struct {
	start  []int32 // len m+2; slot t's phones are phones[start[t]:start[t+1]]
	phones []PhoneID
	cursor []int32 // build scratch
}

func (ix *arrivalsIndex) build(in *Instance) {
	m := int(in.Slots)
	ix.start = resize(ix.start, m+2)
	eligible := 0
	for _, b := range in.Bids {
		if !in.AllocateAtLoss && b.Cost >= in.Value {
			continue
		}
		ix.start[b.Arrival+1]++
		eligible++
	}
	for t := 1; t <= m+1; t++ {
		ix.start[t] += ix.start[t-1]
	}
	ix.phones = resize(ix.phones, eligible)
	ix.cursor = resize(ix.cursor, m+1)
	copy(ix.cursor, ix.start[:m+1])
	for i, b := range in.Bids {
		if !in.AllocateAtLoss && b.Cost >= in.Value {
			continue
		}
		ix.phones[ix.cursor[b.Arrival]] = PhoneID(i)
		ix.cursor[b.Arrival]++
	}
}

func (ix *arrivalsIndex) at(t Slot) []PhoneID {
	return ix.phones[ix.start[t]:ix.start[t+1]]
}

// runBaseline executes Algorithm 1 over slots [1, upTo], recording the
// winners plus the cascade side state. heapBuf is reused storage for
// the allocation pool; the (possibly grown) storage is returned so the
// caller can keep it — for the streaming auction it still holds the
// live pool.
func runBaseline(in *Instance, idx *arrivalsIndex, run *greedyRun, heapBuf []PhoneID, upTo Slot) []PhoneID {
	h := costHeap{bids: in.Bids, items: heapBuf[:0]}
	ti := 0
	for t := Slot(1); t <= upTo; t++ {
		for _, p := range idx.at(t) {
			h.push(p)
		}
		for ; ti < len(in.Tasks) && in.Tasks[ti].Arrival == t; ti++ {
			winner := h.popEligible(t)
			if winner == NoPhone {
				run.unserved[t]++
				run.runnerUp[ti] = NoPhone
				continue
			}
			run.byTask[ti] = winner
			run.phoneTask[winner] = TaskID(ti)
			run.wonAt[winner] = t
			run.noteWinner(t, winner, in.Bids[winner].Cost)
			run.runnerUp[ti] = h.peekEligible(t)
		}
	}
	return h.items
}

// slotFix is one slot's counterfactual payment candidate along a
// winner's replacement cascade.
type slotFix struct {
	slot Slot
	cand float64
}

// cascadePayment prices winner i from the baseline run alone.
//
// Removing i's bid leaves the greedy allocation unchanged except along a
// replacement cascade: the counterfactual pool always equals the
// baseline pool minus one "debt" phone (initially i), so the two runs
// diverge exactly at the tasks the baseline assigns to the current debt,
// where the counterfactual instead picks that task's recorded runner-up
// — which becomes the new debt. The cascade is absorbed when a runner-up
// never wins in the baseline, or leaves a task unserved when there is no
// runner-up at all (i was pivotal: the critical value is the reserve ν).
// See docs/THEORY.md §5 for the full equivalence argument.
//
// fixes is reusable scratch; the (possibly grown) slice is returned.
func cascadePayment(in *Instance, run *greedyRun, i PhoneID, fixes []slotFix) (float64, []slotFix) {
	bids := in.Bids
	won := run.wonAt[i]
	dep := bids[i].Departure
	pay := bids[i].Cost
	fixes = fixes[:0]

	tau := run.phoneTask[i]
	debt := i
	for tau != NoTask {
		t := in.Tasks[tau].Arrival
		if t > dep {
			break // Algorithm 2 only inspects slots up to i's departure
		}
		// Walk every cascade step landing in slot t: the slot's winner
		// multiset loses the first debt and gains the last runner-up.
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
			cand = in.Value // task tau goes unserved without i: reserve
			tau = NoTask    // cascade absorbed
		case run.unserved[t] > 0:
			cand = in.Value // Algorithm 2 prices any short slot at ν
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

	// Window max over [won, dep]: cascade slots use their counterfactual
	// candidate, every other slot is identical to the baseline.
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
	return pay, fixes
}

// oracleScratch holds the reusable buffers of one Algorithm 2 re-run.
type oracleScratch struct {
	heap     []PhoneID
	unserved []int32
	maxCost  []float64
}

// oracleCritical is the literal Algorithm 2: re-run the greedy
// allocation without winner i through its reported departure and pay the
// maximum claimed cost among the phones allocated in [won, departure]
// (ν for any slot with an unserved task), floored at i's own bid.
func oracleCritical(in *Instance, idx *arrivalsIndex, i PhoneID, won Slot, sc *oracleScratch) float64 {
	d := in.Bids[i].Departure
	sc.unserved = resize(sc.unserved, int(d)+1)
	sc.maxCost = resize(sc.maxCost, int(d)+1)
	h := costHeap{bids: in.Bids, items: sc.heap[:0]}
	ti := 0
	for t := Slot(1); t <= d; t++ {
		for _, p := range idx.at(t) {
			if p == i {
				continue
			}
			h.push(p)
		}
		for ; ti < len(in.Tasks) && in.Tasks[ti].Arrival == t; ti++ {
			w := h.popEligible(t)
			if w == NoPhone {
				sc.unserved[t]++
				continue
			}
			if c := in.Bids[w].Cost; c > sc.maxCost[t] {
				sc.maxCost[t] = c
			}
		}
	}
	sc.heap = h.items
	pay := in.Bids[i].Cost
	for t := won; t <= d; t++ {
		cand := sc.maxCost[t]
		if sc.unserved[t] > 0 {
			cand = in.Value
		}
		if cand > pay {
			pay = cand
		}
	}
	return pay
}

// paymentQuery carries what the engines price from — the instance, the
// baseline run, and reusable scratch. Not safe for concurrent use; each
// concurrent caller owns its own query.
type paymentQuery struct {
	in  *Instance
	run *greedyRun
	idx *arrivalsIndex // nil until an oracle engine needs one
	m   *Metrics       // nil disables engine instrumentation

	idxBuf arrivalsIndex
	fixes  []slotFix
	osc    oracleScratch
}

// index returns the arrivals index, building it on first use (the
// streaming auction prices cascades without ever needing one).
func (q *paymentQuery) index() *arrivalsIndex {
	if q.idx == nil {
		q.idxBuf.build(q.in)
		q.idx = &q.idxBuf
	}
	return q.idx
}

type cascadeEngine struct{}

func (cascadeEngine) Name() string { return "cascade" }

func (cascadeEngine) price(q *paymentQuery, i PhoneID) float64 {
	q.m.noteCascade()
	var pay float64
	pay, q.fixes = cascadePayment(q.in, q.run, i, q.fixes)
	return pay
}

func (e cascadeEngine) priceAll(q *paymentQuery, pay []float64) {
	for i, task := range q.run.phoneTask {
		if task != NoTask {
			pay[i] = e.price(q, PhoneID(i))
		}
	}
}

type oracleEngine struct{}

func (oracleEngine) Name() string { return "oracle" }

func (oracleEngine) price(q *paymentQuery, i PhoneID) float64 {
	q.m.noteOracle()
	return oracleCritical(q.in, q.index(), i, q.run.wonAt[i], &q.osc)
}

func (e oracleEngine) priceAll(q *paymentQuery, pay []float64) {
	for i, task := range q.run.phoneTask {
		if task != NoTask {
			pay[i] = e.price(q, PhoneID(i))
		}
	}
}

// mechScratch is the pooled per-run working set of OnlineMechanism: the
// arrivals index, greedy pool, cascade side state, and payment scratch.
// Pooling makes repeated and concurrent Run calls (sim fans replications
// out over a worker pool) allocation-free on the hot path after warm-up.
type mechScratch struct {
	idx  arrivalsIndex
	heap []PhoneID
	run  greedyRun
	q    paymentQuery
}

var mechPool = sync.Pool{New: func() any {
	scratchPoolMisses.Add(1)
	return new(mechScratch)
}}
