package core

import "dynacrowd/internal/matching"

// OfflineEngine selects how OfflineMechanism computes the optimal
// allocation and the VCG payments. Both engines produce the optimal
// welfare and — up to tie-breaking among equal-weight optima — the same
// payments; they differ only in cost:
//
//   - IntervalOffline exploits the instance's interval structure: tasks
//     within a slot are interchangeable and edge weights depend only on
//     the phone, so allocation is a weight-ordered augmenting-path
//     greedy over slot capacities and every ω*(B₋ᵢ) follows from one
//     substitute query instead of a re-solve (docs/THEORY.md §6).
//     Near-linear in practice; the default.
//   - HungarianOffline is the literal dense O((n+γ)³) Hungarian solve
//     with O((n+γ)²) post-optimal dual queries per winner — the
//     differential oracle the fast engine is pinned against.
//
// Engines are stateless and safe for concurrent use.
type OfflineEngine interface {
	// Name returns a short identifier ("interval", "hungarian").
	Name() string
	// run computes the welfare-optimal allocation and VCG payments for a
	// validated instance.
	run(in *Instance) (*Outcome, error)
	// welfare computes only ω*(B) for a validated instance.
	welfare(in *Instance) float64
}

// The package-level engine instances. IntervalOffline is the default
// used by OfflineMechanism when none is selected.
var (
	IntervalOffline  OfflineEngine = intervalOfflineEngine{}
	HungarianOffline OfflineEngine = hungarianOfflineEngine{}
)

// intervalOfflineEngine is the fast path: it collapses the tasks×phones
// matching into the interval-capacity problem matching.SolveInterval
// solves (phones are items with window [arrival, departure] and weight
// ν − b; slot capacities are the per-slot task counts) and prices every
// winner from one substitute-weight sweep:
//
//	p_i = ω*(B) + b_i − ω*(B₋ᵢ) = ν − w(best substitute)   (ν if none).
type intervalOfflineEngine struct{}

func (intervalOfflineEngine) Name() string { return "interval" }

func offlineItems(in *Instance) []matching.IntervalItem {
	items := make([]matching.IntervalItem, len(in.Bids))
	for i, b := range in.Bids {
		items[i] = matching.IntervalItem{Lo: int(b.Arrival), Hi: int(b.Departure), Weight: in.Value - b.Cost}
	}
	return items
}

func (intervalOfflineEngine) solve(in *Instance) *matching.IntervalAssignment {
	m := int(in.Slots)
	capacity := make([]int, m+1)
	for _, tk := range in.Tasks {
		capacity[tk.Arrival]++
	}
	return matching.SolveInterval(m, capacity, offlineItems(in))
}

func (e intervalOfflineEngine) run(in *Instance) (*Outcome, error) {
	asg := e.solve(in)

	// Tasks are arrival-sorted (Validate), so slot t's tasks occupy the
	// contiguous index range [start[t], start[t+1]); hand them out to
	// that slot's winners in phone-id order.
	m := int(in.Slots)
	start := make([]int, m+2)
	for _, tk := range in.Tasks {
		start[int(tk.Arrival)+1]++
	}
	for t := 1; t <= m+1; t++ {
		start[t] += start[t-1]
	}
	alloc := NewAllocation(in.NumTasks(), in.NumPhones())
	cursor := start
	for i, t := range asg.SlotOf {
		if t == matching.Unmatched {
			continue
		}
		task := cursor[t]
		cursor[t]++
		alloc.Assign(TaskID(task), PhoneID(i), Slot(t))
	}

	out := &Outcome{
		Allocation: alloc,
		Payments:   make([]float64, in.NumPhones()),
		Welfare:    asg.Weight,
	}
	sub := asg.SubstituteWeights()
	for i, t := range asg.SlotOf {
		if t != matching.Unmatched {
			out.Payments[i] = in.Value - sub[i]
		}
	}
	return out, nil
}

func (e intervalOfflineEngine) welfare(in *Instance) float64 {
	return e.solve(in).Weight
}

// hungarianOfflineEngine is the PR-seed algorithm kept verbatim as the
// differential oracle: dense Hungarian solve, then each winner's
// ω*(B₋ᵢ) as a post-optimal dual query on the solved matching.
type hungarianOfflineEngine struct{}

func (hungarianOfflineEngine) Name() string { return "hungarian" }

func (hungarianOfflineEngine) run(in *Instance) (*Outcome, error) {
	sv := matching.NewSolver(in.NumTasks(), in.NumPhones(), weightFunc(in))
	alloc := NewAllocation(in.NumTasks(), in.NumPhones())
	res := sv.Result()
	for task, phone := range res.MatchLeft {
		if phone == matching.Unmatched {
			continue
		}
		alloc.Assign(TaskID(task), PhoneID(phone), in.Tasks[task].Arrival)
	}
	out := &Outcome{
		Allocation: alloc,
		Payments:   make([]float64, in.NumPhones()),
		Welfare:    res.Weight,
	}
	// VCG: p_i = ω*(B) + b_i − ω*(B₋ᵢ).
	for _, i := range alloc.Winners() {
		out.Payments[i] = res.Weight + in.Bids[i].Cost - sv.WeightWithoutRight(int(i))
	}
	return out, nil
}

func (hungarianOfflineEngine) welfare(in *Instance) float64 {
	return matching.MaxWeightMatching(in.NumTasks(), in.NumPhones(), weightFunc(in)).Weight
}
