package workload

import (
	"fmt"

	"dynacrowd/internal/core"
)

// HeavyScenario is the stress workload for the online engine: far
// denser phone arrivals than the paper's Table I, Zipf-distributed
// activity-window lengths (a mass of hit-and-run phones with a long
// tail of phones that camp in the pool all round), and bursty task
// arrivals (quiet slots punctuated by demand spikes that drain deep
// into the pool). The skewed windows keep pool occupancy high, which
// is the regime where allocation and cascade pricing cost the most.
type HeavyScenario struct {
	// Slots is m, the round length.
	Slots core.Slot `json:"slots"`
	// PhoneRate is the mean number of phones arriving per slot.
	PhoneRate float64 `json:"phoneRate"`
	// ZipfExponent skews the activity-window length distribution;
	// lengths are drawn Zipf(s) over [1, MaxActiveLength]. Smaller
	// exponents mean heavier tails (more long-lived phones).
	ZipfExponent float64 `json:"zipfExponent"`
	// MaxActiveLength bounds the drawn window length (clipped to the
	// round end like the base scenario).
	MaxActiveLength int `json:"maxActiveLength"`
	// MeanCost is c̄; costs are uniform on [0, 2c̄].
	MeanCost float64 `json:"meanCost"`
	// Value is ν, the per-task value.
	Value float64 `json:"value"`
	// TaskRate is the mean task arrivals in an ordinary slot.
	TaskRate float64 `json:"taskRate"`
	// BurstEvery makes every k-th slot a burst slot (0 disables bursts).
	BurstEvery int `json:"burstEvery"`
	// BurstFactor multiplies TaskRate in burst slots.
	BurstFactor float64 `json:"burstFactor"`
	// AllocateAtLoss is forwarded to the generated instances.
	AllocateAtLoss bool `json:"allocateAtLoss,omitempty"`
}

// HeavyTrafficScenario returns the benchmark-grade configuration:
// ~2000 phones per 50-slot round with every fifth slot demanding six
// times the baseline tasks.
func HeavyTrafficScenario() HeavyScenario {
	return HeavyScenario{
		Slots:           50,
		PhoneRate:       40,
		ZipfExponent:    1.1,
		MaxActiveLength: 50,
		MeanCost:        25,
		Value:           30,
		TaskRate:        4,
		BurstEvery:      5,
		BurstFactor:     6,
	}
}

// HeavyTrafficQuick returns a thinned configuration for unit tests and
// smoke runs: the same shape (Zipf windows, bursts) at a fraction of
// the volume.
func HeavyTrafficQuick() HeavyScenario {
	s := HeavyTrafficScenario()
	s.Slots = 20
	s.PhoneRate = 12
	s.MaxActiveLength = 20
	s.TaskRate = 2
	s.BurstEvery = 4
	s.BurstFactor = 4
	return s
}

// Validate checks the scenario parameters.
func (s HeavyScenario) Validate() error {
	switch {
	case s.Slots < 1:
		return fmt.Errorf("heavy scenario: slots %d < 1", s.Slots)
	case s.PhoneRate < 0:
		return fmt.Errorf("heavy scenario: negative phone rate %g", s.PhoneRate)
	case s.ZipfExponent <= 0:
		return fmt.Errorf("heavy scenario: zipf exponent %g must be positive", s.ZipfExponent)
	case s.MaxActiveLength < 1:
		return fmt.Errorf("heavy scenario: max active length %d < 1", s.MaxActiveLength)
	case s.MeanCost <= 0:
		return fmt.Errorf("heavy scenario: mean cost %g must be positive", s.MeanCost)
	case s.Value < 0:
		return fmt.Errorf("heavy scenario: negative value %g", s.Value)
	case s.TaskRate < 0:
		return fmt.Errorf("heavy scenario: negative task rate %g", s.TaskRate)
	case s.BurstEvery < 0:
		return fmt.Errorf("heavy scenario: negative burst period %d", s.BurstEvery)
	case s.BurstEvery > 0 && s.BurstFactor < 1:
		return fmt.Errorf("heavy scenario: burst factor %g < 1", s.BurstFactor)
	}
	return nil
}

// Generate draws one heavy-traffic round. Bids are ordered by arrival
// slot with Phone equal to index, like Scenario.Generate, so instances
// stream through the online engines with IDs preserved. The same
// (scenario, seed) pair always yields the identical instance.
func (s HeavyScenario) Generate(seed uint64) (*core.Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := NewRNG(seed)
	zipf := NewZipf(s.MaxActiveLength, s.ZipfExponent)
	in := &core.Instance{Slots: s.Slots, Value: s.Value, AllocateAtLoss: s.AllocateAtLoss}
	for t := core.Slot(1); t <= s.Slots; t++ {
		for k := rng.Poisson(s.PhoneRate); k > 0; k-- {
			depart := t + core.Slot(zipf.Sample(rng)) - 1
			if depart > s.Slots {
				depart = s.Slots
			}
			in.Bids = append(in.Bids, core.Bid{
				Phone:     core.PhoneID(len(in.Bids)),
				Arrival:   t,
				Departure: depart,
				Cost:      rng.Uniform(0, 2*s.MeanCost),
			})
		}
		rate := s.TaskRate
		if s.BurstEvery > 0 && int(t)%s.BurstEvery == 0 {
			rate *= s.BurstFactor
		}
		for k := rng.Poisson(rate); k > 0; k-- {
			in.Tasks = append(in.Tasks, core.Task{
				ID:      core.TaskID(len(in.Tasks)),
				Arrival: t,
			})
		}
	}
	return in, nil
}
