package budget

import (
	"fmt"
	"sort"

	"dynacrowd/internal/core"
)

// Mechanism adapts the budgeted auction to core.Mechanism so sweeps,
// audits, and differential tests can run it against batch instances.
// Run streams the instance slot by slot through a fresh Auction — each
// bid joins in its arrival slot, tasks are announced per slot — and
// maps the outcome back to the instance's phone numbering. Safe for
// concurrent use (every Run builds its own auction).
type Mechanism struct {
	// Budget is the hard round budget B (validated by Run).
	Budget float64
	// Engine selects the threshold estimator (nil: StageSampling).
	Engine Engine
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string {
	eng := m.Engine
	if eng == nil {
		eng = StageSampling{}
	}
	return fmt.Sprintf("budget-%s-B%g", eng.Name(), m.Budget)
}

// Run implements core.Mechanism. For instances whose bids are arrival-
// ordered (every workload generator's output), phone IDs survive the
// streaming unchanged; otherwise IDs are remapped through the delivery
// permutation.
func (m *Mechanism) Run(in *core.Instance) (*core.Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("budget mechanism: %w", err)
	}
	a, err := New(in.Slots, in.Value, in.AllocateAtLoss, m.Budget, m.Engine)
	if err != nil {
		return nil, fmt.Errorf("budget mechanism: %w", err)
	}
	return streamInstance(a, in)
}

// streamInstance replays a batch instance slot by slot through any
// core.Auction and maps the outcome back to instance phone IDs.
func streamInstance(a core.Auction, in *core.Instance) (*core.Outcome, error) {
	if err := core.StepThrough(a, in, in.Slots, nil); err != nil {
		return nil, fmt.Errorf("budget mechanism: %w", err)
	}
	// Streamed IDs follow arrival order, instance IDs within a slot.
	perm := make([]core.PhoneID, len(in.Bids)) // stream ID -> instance ID
	for i := range perm {
		perm[i] = core.PhoneID(i)
	}
	sort.SliceStable(perm, func(x, y int) bool { return in.Bids[perm[x]].Arrival < in.Bids[perm[y]].Arrival })

	got := a.Outcome()
	out := &core.Outcome{
		Allocation: core.NewAllocation(in.NumTasks(), in.NumPhones()),
		Payments:   make([]float64, in.NumPhones()),
	}
	for k, ph := range got.Allocation.ByTask {
		if ph != core.NoPhone {
			out.Allocation.Assign(core.TaskID(k), perm[ph], got.Allocation.WonAt[ph])
		}
	}
	for j, amount := range got.Payments {
		out.Payments[perm[j]] = amount
	}
	out.Welfare = out.Allocation.Welfare(in)
	return out, nil
}

var _ core.Mechanism = (*Mechanism)(nil)

// NaiveTruncated is the strawman the Fig-5-style counterexample test
// knocks down: run the paper's unbudgeted online mechanism, then pay
// winners in settlement order (departure slot, then phone ID) until the
// budget runs out — the last affordable winner gets the remainder,
// everyone after gets nothing. It is budget-feasible but NOT truthful
// (a phone facing a truncated payment below its cost gains by inflating
// its cost past ν to stay out of the auction) and violates individual
// rationality. TestNaiveTruncatedNotTruthful exhibits the directed
// instance.
type NaiveTruncated struct {
	// Budget is the hard round budget B (validated by Run).
	Budget float64
}

// Name implements core.Mechanism.
func (m *NaiveTruncated) Name() string { return fmt.Sprintf("naive-truncated-B%g", m.Budget) }

// Run implements core.Mechanism.
func (m *NaiveTruncated) Run(in *core.Instance) (*core.Outcome, error) {
	if err := ValidateBudget(m.Budget); err != nil {
		return nil, err
	}
	base := &core.OnlineMechanism{}
	out, err := base.Run(in)
	if err != nil {
		return nil, fmt.Errorf("naive truncated: %w", err)
	}
	winners := out.Allocation.Winners()
	sort.Slice(winners, func(x, y int) bool {
		dx, dy := in.Bids[winners[x]].Departure, in.Bids[winners[y]].Departure
		if dx != dy {
			return dx < dy
		}
		return winners[x] < winners[y]
	})
	remaining := m.Budget
	for _, i := range winners {
		pay := out.Payments[i]
		if pay > remaining {
			pay = remaining
		}
		out.Payments[i] = pay
		remaining -= pay
	}
	return out, nil
}

var _ core.Mechanism = (*NaiveTruncated)(nil)
