package workload

import (
	"fmt"

	"dynacrowd/internal/core"
)

// CostDistribution selects how per-task real costs are drawn.
type CostDistribution int

// Supported cost distributions. The paper specifies only the average real
// cost; CostUniform (mean c̄ over [c̄/2, 3c̄/2]) is the default, the
// others support sensitivity studies.
const (
	CostUniform CostDistribution = iota + 1
	CostExponential
	CostNormal // mean c̄, σ = c̄/4, truncated at 0
)

// String implements fmt.Stringer.
func (d CostDistribution) String() string {
	switch d {
	case CostUniform:
		return "uniform"
	case CostExponential:
		return "exponential"
	case CostNormal:
		return "normal"
	default:
		return fmt.Sprintf("CostDistribution(%d)", int(d))
	}
}

// Scenario holds the workload parameters of the paper's Table I. The
// zero value is not useful; start from DefaultScenario.
type Scenario struct {
	// Slots is m, the number of slots in a round (Table I: 50).
	Slots core.Slot `json:"slots"`
	// PhoneRate is λ, the mean number of smartphones arriving per slot
	// (Table I: 6).
	PhoneRate float64 `json:"phoneRate"`
	// TaskRate is λ_t, the mean number of sensing tasks arriving per slot
	// (Table I: 3).
	TaskRate float64 `json:"taskRate"`
	// MeanCost is c̄, the average real cost (Table I: 25).
	MeanCost float64 `json:"meanCost"`
	// MeanActiveLength is the average active-time length in slots
	// (Table I: 5, i.e. 10% of the default 50 slots). Lengths are drawn
	// uniformly from [1, 2·mean−1] so the mean matches.
	MeanActiveLength int `json:"meanActiveLength"`
	// Value is ν, the platform's fixed value per completed task. The
	// paper leaves ν unspecified, but its reported welfare magnitudes
	// (a few hundred for ~150 tasks at c̄ = 25) imply a thin margin of ν
	// over the mean cost; the default 30 reproduces that regime and the
	// visible online/offline gap. See DESIGN.md §2 and EXPERIMENTS.md.
	Value float64 `json:"value"`
	// Costs selects the cost distribution (default CostUniform).
	Costs CostDistribution `json:"costs"`
	// CostSpread sets the relative half-width of the uniform cost
	// distribution: costs are drawn from U[c̄(1−s), c̄(1+s)]. The paper
	// specifies only the average; the default 1 (costs from 0 to 2c̄)
	// reproduces the paper's overpayment magnitudes, which are sensitive
	// to how cheap the cheapest phones are. Ignored by the non-uniform
	// distributions.
	CostSpread float64 `json:"costSpread"`
	// AllocateAtLoss is forwarded to the generated instances.
	AllocateAtLoss bool `json:"allocateAtLoss,omitempty"`
}

// DefaultScenario returns the paper's Table I settings.
func DefaultScenario() Scenario {
	return Scenario{
		Slots:            50,
		PhoneRate:        6,
		TaskRate:         3,
		MeanCost:         25,
		MeanActiveLength: 5,
		Value:            30,
		Costs:            CostUniform,
		CostSpread:       1,
	}
}

// Validate checks the scenario parameters.
func (s Scenario) Validate() error {
	switch {
	case s.Slots < 1:
		return fmt.Errorf("scenario: slots %d < 1", s.Slots)
	case s.PhoneRate < 0:
		return fmt.Errorf("scenario: negative phone rate %g", s.PhoneRate)
	case s.TaskRate < 0:
		return fmt.Errorf("scenario: negative task rate %g", s.TaskRate)
	case s.MeanCost <= 0:
		return fmt.Errorf("scenario: mean cost %g must be positive", s.MeanCost)
	case s.MeanActiveLength < 1:
		return fmt.Errorf("scenario: mean active length %d < 1", s.MeanActiveLength)
	case s.Value < 0:
		return fmt.Errorf("scenario: negative value %g", s.Value)
	case s.Costs == CostUniform && (s.CostSpread <= 0 || s.CostSpread > 1):
		return fmt.Errorf("scenario: cost spread %g outside (0, 1]", s.CostSpread)
	}
	switch s.Costs {
	case CostUniform, CostExponential, CostNormal:
	default:
		return fmt.Errorf("scenario: unknown cost distribution %d", int(s.Costs))
	}
	return nil
}

// sampleCost draws one real cost.
func (s Scenario) sampleCost(rng *RNG) float64 {
	switch s.Costs {
	case CostExponential:
		return rng.Exponential(s.MeanCost)
	case CostNormal:
		c := s.MeanCost + rng.Normal()*s.MeanCost/4
		if c < 0 {
			c = 0
		}
		return c
	default:
		return rng.Uniform(s.MeanCost*(1-s.CostSpread), s.MeanCost*(1+s.CostSpread))
	}
}

// Generate draws one auction round from the scenario using the given
// seed. Bids are ordered by arrival slot (the order a streaming platform
// would observe), tasks by arrival. The same (scenario, seed) pair always
// yields the identical instance. It is GenerateWithProfiles with flat
// arrival rates.
func (s Scenario) Generate(seed uint64) (*core.Instance, error) {
	return s.GenerateWithProfiles(seed, nil, nil)
}
