package core

import (
	"fmt"

	"dynacrowd/internal/matching"
)

// OfflineMechanism is the paper's Section IV auction: all bids and task
// arrivals are known before allocation. Winning-bid determination is an
// exact maximum weighted bipartite matching (tasks × phones, edge weight
// ν − b_i when the phone's claimed window covers the task's arrival
// slot). Payments are VCG: a winner is paid its externality,
//
//	p_i = ω*(B) + b_i − ω*(B₋ᵢ),
//
// and losers are paid zero. The mechanism is truthful in all three bid
// dimensions (Theorem 1), individually rational (Theorem 2), and
// welfare-optimal.
//
// The matching is solved by weight-ordered augmenting paths over the
// instance's interval structure, and every payment follows from one
// substitute-weight sweep — near-linear, against the cubic solve of
// OfflineOracle, the literal Hungarian+VCG reference it is checked
// against (docs/THEORY.md §6).
type OfflineMechanism struct{}

// Name implements Mechanism.
func (*OfflineMechanism) Name() string { return "offline-vcg" }

// Run implements Mechanism: the welfare-optimal allocation and the VCG
// payments of a valid instance. The interval solve collapses the
// tasks×phones matching into the interval-capacity problem
// matching.SolveInterval solves (phones are items with window
// [arrival, departure] and weight ν − b; slot capacities are the
// per-slot task counts), and each winner's payment is
//
//	p_i = ω*(B) + b_i − ω*(B₋ᵢ) = ν − w(best substitute)   (ν if none).
func (*OfflineMechanism) Run(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("offline mechanism: %w", err)
	}
	asg := solveOffline(in)

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

// solveOffline solves a validated instance's interval-capacity problem.
func solveOffline(in *Instance) *matching.IntervalAssignment {
	m := int(in.Slots)
	capacity := make([]int, m+1)
	for _, tk := range in.Tasks {
		capacity[tk.Arrival]++
	}
	items := make([]matching.IntervalItem, len(in.Bids))
	for i, b := range in.Bids {
		items[i] = matching.IntervalItem{Lo: int(b.Arrival), Hi: int(b.Departure), Weight: in.Value - b.Cost}
	}
	return matching.SolveInterval(m, capacity, items)
}

// Welfare computes only the optimal social welfare of the instance,
// skipping payment computation. It is the ω*(·) oracle used by tests and
// by the online mechanism's competitive-ratio evaluation.
func (*OfflineMechanism) Welfare(in *Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, fmt.Errorf("offline welfare: %w", err)
	}
	return solveOffline(in).Weight, nil
}
