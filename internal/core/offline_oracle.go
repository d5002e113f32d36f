package core

import (
	"fmt"

	"dynacrowd/internal/matching"
)

// OfflineOracle is the offline mechanism computed literally: a dense
// O((n+γ)³) Hungarian solve of the tasks×phones matching, then each
// winner's ω*(B₋ᵢ) as an O((n+γ)²) post-optimal dual query on the
// solved matching. It is kept only as the reference OfflineMechanism is
// checked against: both reach the optimal welfare and — up to
// tie-breaking among equal-weight optima — the same VCG payments.
// Safe for concurrent use.
type OfflineOracle struct{}

// Name implements Mechanism.
func (OfflineOracle) Name() string { return "offline-vcg+hungarian" }

// Run implements Mechanism.
func (OfflineOracle) Run(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("offline oracle: %w", err)
	}
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

// hungarianWelfare is ω*(B) by the dense Hungarian solve. It does not
// validate, so it also takes instances whose phone IDs are not dense,
// such as Instance.WithoutPhone's.
func hungarianWelfare(in *Instance) float64 {
	return matching.MaxWeightMatching(in.NumTasks(), in.NumPhones(), weightFunc(in)).Weight
}

// weightFunc builds the bipartite edge-weight function for an instance:
// tasks on the left, phones on the right, weight ν − b when the phone is
// active in the task's slot (Section IV-B). Non-edges and unprofitable
// edges are ≤ 0 and thus never matched.
func weightFunc(in *Instance) matching.WeightFunc {
	return func(task, phone int) float64 {
		b := in.Bids[phone]
		if !b.Covers(in.Tasks[task].Arrival) {
			return 0
		}
		return in.Value - b.Cost
	}
}
