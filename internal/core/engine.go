package core

import (
	"slices"
	"sync"
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

// grown returns s with room for n more elements. When it has none, the
// new backing array holds max(2·cap(s), len(s)+n) elements: append grows
// a large slice by about 1.25× at a time, which would copy a growing
// round's state several times over.
func grown[T any](s []T, n int) []T {
	need := len(s) + n
	if need <= cap(s) {
		return s
	}
	t := make([]T, len(s), max(2*cap(s), need))
	copy(t, s)
	return t
}

// extend returns s lengthened to n (≥ len(s)) with the new elements
// zeroed, growing it as grown does.
func extend[T any](s []T, n int) []T {
	s = grown(s, n-len(s))
	clear(s[len(s):n])
	return s[:n]
}

// greedyRun is the outcome of one baseline greedy pass (Algorithm 1)
// plus the side state cascadePayment prices from: each task's
// runner-up at assignment time and per-slot winner-cost and unserved
// tables. Slot-indexed slices are 1-based with index 0 unused. A
// winner's slot is its task's arrival (see wonAt), so it is not stored.
type greedyRun struct {
	byTask    []PhoneID // task -> winner (NoPhone if unserved)
	phoneTask []TaskID  // phone -> its won task (NoTask if it lost)
	runnerUp  []PhoneID // task -> next-cheapest eligible phone when assigned

	unserved []int32   // slot -> tasks left unserved
	max1     []float64 // slot -> highest winner cost
	max1p    []PhoneID // slot -> phone holding max1 (NoPhone if none)
	max2     []float64 // slot -> second-highest winner cost

	// The cascade's within-slot chain memo (see relinkSlot). slotEnd is
	// sized lazily by the first relink and read only for slots whose
	// stale flag is clear; every change to a slot's winners sets it.
	slotEnd []TaskID // task -> where its within-slot chain stops
	stale   []bool   // slot -> slotEnd entries need a relink
}

// wonAt returns the slot a phone holding task won in: the task's
// arrival, or 0 for NoTask.
func wonAt(tasks []Task, task TaskID) Slot {
	if task == NoTask {
		return 0
	}
	return tasks[task].Arrival
}

// fillWonAt sets wonAt[p] to the slot of every winner p that byTask
// records over tasks.
func fillWonAt(wonAt []Slot, tasks []Task, byTask []PhoneID) {
	for k, p := range byTask {
		if p != NoPhone {
			wonAt[p] = tasks[k].Arrival
		}
	}
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
	g.stale = resize(g.stale, n)
	g.markStale()
}

// markStale invalidates the within-slot chain memo of every slot.
func (g *greedyRun) markStale() {
	for t := range g.stale {
		g.stale[t] = true
	}
}

// noteWinner updates slot t's top-2 winner-cost table with phone p's
// cost c. The ">=" keeps max2 correct when costs tie. A new winner can
// extend the slot's runner-up chains, so the slot's memo goes stale.
func (g *greedyRun) noteWinner(t Slot, p PhoneID, c float64) {
	g.stale[t] = true
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

// relinkSlot rebuilds the within-slot chain memo of slot t, the slot of
// task tau, in one reverse pass over the slot's tasks. The chain from
// task k follows k's runner-up to the task it wins in slot t; slotEnd[k]
// is the last task reached. A forward link inherits the later task's
// end. A chain end (no runner-up, or one winning no task of slot t) maps
// to itself, and so does a backward link — a default drafted the
// runner-up into an earlier task of the slot — which the walk then steps
// literally. Runner-ups are recorded before they win, so links never
// form a cycle.
//
// Only slot t's own winners decide its chains: a later slot's win never
// makes a slot-t runner-up win in slot t. So a relink stays valid until
// the slot's winner set changes, which marks it stale.
func (g *greedyRun) relinkSlot(tasks []Task, tau TaskID, t Slot) {
	if n := len(tasks); len(g.slotEnd) < n {
		g.slotEnd = slices.Grow(g.slotEnd, n-len(g.slotEnd))[:n]
	}
	lo, hi := int(tau), int(tau)+1
	for lo > 0 && tasks[lo-1].Arrival == t {
		lo--
	}
	for hi < len(tasks) && tasks[hi].Arrival == t {
		hi++
	}
	for k := hi - 1; k >= lo; k-- {
		end := TaskID(k)
		if r := g.runnerUp[k]; r != NoPhone {
			if next := g.phoneTask[r]; int(next) > k && int(next) < hi {
				end = g.slotEnd[next]
			}
		}
		g.slotEnd[k] = end
	}
	g.stale[t] = false
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
		if !in.poolable(b.Cost) {
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
		if !in.poolable(b.Cost) {
			continue
		}
		ix.phones[ix.cursor[b.Arrival]] = PhoneID(i)
		ix.cursor[b.Arrival]++
	}
}

func (ix *arrivalsIndex) at(t Slot) []PhoneID {
	return ix.phones[ix.start[t]:ix.start[t+1]]
}

// runBaseline executes Algorithm 1 over the whole round, recording the
// winners plus the cascade side state. heapBuf is reused storage for
// the allocation pool; the (possibly grown) storage is returned so the
// caller can keep it.
func runBaseline(in *Instance, idx *arrivalsIndex, run *greedyRun, heapBuf []heapEntry) []heapEntry {
	h := costHeap{items: heapBuf[:0]}
	ti := 0
	for t := Slot(1); t <= in.Slots; t++ {
		for _, p := range idx.at(t) {
			h.push(&in.Bids[p])
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
	tau := run.phoneTask[i]
	won := in.Tasks[tau].Arrival
	dep := bids[i].Departure
	pay := bids[i].Cost
	fixes = fixes[:0]

	debt := i
	for tau != NoTask {
		t := in.Tasks[tau].Arrival
		if t > dep {
			break // Algorithm 2 only inspects slots up to i's departure
		}
		// Jump over every cascade step landing in slot t: the slot's
		// winner multiset loses the first debt and gains the last
		// runner-up. The memo jumps to the end of a forward run; a
		// backward link left by a default is stepped literally.
		if run.stale[t] {
			run.relinkSlot(in.Tasks, tau, t)
		}
		tau = run.slotEnd[tau]
		r := run.runnerUp[tau]
		for r != NoPhone {
			next := run.phoneTask[r]
			if next == NoTask || in.Tasks[next].Arrival != t {
				break
			}
			tau = run.slotEnd[next]
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
			cand = run.maxExcluding(t, debt)
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
	heap     []heapEntry
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
	h := costHeap{items: sc.heap[:0]}
	ti := 0
	for t := Slot(1); t <= d; t++ {
		for _, p := range idx.at(t) {
			if p == i {
				continue
			}
			h.push(&in.Bids[p])
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

// mechScratch is the pooled per-run working set of OnlineMechanism: the
// arrivals index, greedy pool, cascade side state, and payment scratch.
// Pooling makes repeated and concurrent Run calls (sim fans replications
// out over a worker pool) allocation-free on the hot path after warm-up.
type mechScratch struct {
	idx   arrivalsIndex
	heap  []heapEntry
	run   greedyRun
	fixes []slotFix
}

var mechPool = sync.Pool{New: func() any { return new(mechScratch) }}
