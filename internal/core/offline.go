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
// The algorithm is selected by Engine. The default IntervalOffline
// engine solves the matching by weight-ordered augmenting paths over
// the instance's interval structure and derives every payment from one
// substitute-weight sweep — near-linear, against the Hungarian oracle's
// cubic solve (see OfflineEngine and docs/THEORY.md §6).
type OfflineMechanism struct {
	// Engine selects the solve/payment backend; nil means the fast
	// IntervalOffline engine. HungarianOffline is the literal
	// Hungarian+VCG oracle kept for differential testing.
	Engine OfflineEngine
}

// Name implements Mechanism.
func (of *OfflineMechanism) Name() string { return "offline-vcg" }

func (of *OfflineMechanism) engine() OfflineEngine {
	if of.Engine != nil {
		return of.Engine
	}
	return IntervalOffline
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

// Run implements Mechanism. It validates the instance and delegates to
// the selected engine for the optimal allocation and VCG payments.
func (of *OfflineMechanism) Run(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("offline mechanism: %w", err)
	}
	return of.engine().run(in)
}

// Welfare computes only the optimal social welfare of the instance,
// skipping payment computation. It is the ω*(·) oracle used by tests and
// by the online mechanism's competitive-ratio evaluation.
func (of *OfflineMechanism) Welfare(in *Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, fmt.Errorf("offline welfare: %w", err)
	}
	return of.engine().welfare(in), nil
}
