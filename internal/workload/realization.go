package workload

import (
	"fmt"

	"dynacrowd/internal/core"
)

// This file models the gap between a phone's declared activity window
// and its realized presence — the uncertainty axis the paper abstracts
// away (it assumes every winner performs its task). Each phone is drawn
// into a reliability class; the class decides whether the phone
// no-shows entirely, shows up late, or vanishes before its declared
// departure. The realization drives the completion lifecycle
// (internal/core): a winner absent in its task's slot defaults, its
// task is re-allocated, and its payment is clawed back.

// ReliabilityClass describes one population tier's failure behavior.
// Probabilities are independent: a phone may be drawn both late and
// vanishing (a brief appearance in the middle of its window).
type ReliabilityClass struct {
	Name string `json:"name"`
	// Weight is the class's share of the population (normalized over
	// the model's classes; they need not sum to 1).
	Weight float64 `json:"weight"`
	// NoShow is the probability the phone never appears at all.
	NoShow float64 `json:"noShow"`
	// LateShow is the probability realized presence starts after the
	// declared arrival, by 1..MaxLateSlots slots (uniform).
	LateShow float64 `json:"lateShow"`
	// MaxLateSlots bounds the late-show slip (≥ 1 when LateShow > 0).
	MaxLateSlots int `json:"maxLateSlots,omitempty"`
	// Vanish is the probability the phone disappears before its
	// declared departure: realized departure is uniform between
	// "immediately after showing up minus one" (present for no full
	// slot) and one slot short of the declared departure.
	Vanish float64 `json:"vanish"`
}

// RealizationModel is a mixture of reliability classes.
type RealizationModel struct {
	Classes []ReliabilityClass `json:"classes"`
}

// ReliableModel returns the paper's implicit assumption: every phone is
// present for its whole declared window.
func ReliableModel() RealizationModel {
	return RealizationModel{Classes: []ReliabilityClass{{Name: "reliable", Weight: 1}}}
}

// TieredModel returns a moderately unreliable population: most phones
// deliver, a flaky tier slips and vanishes, and a small ghost tier
// bids without ever appearing.
func TieredModel() RealizationModel {
	return RealizationModel{Classes: []ReliabilityClass{
		{Name: "reliable", Weight: 0.60},
		{Name: "flaky", Weight: 0.30, LateShow: 0.5, MaxLateSlots: 2, Vanish: 0.5},
		{Name: "ghost", Weight: 0.10, NoShow: 1},
	}}
}

// ChaosModel returns the soak-test population, tuned so well over 20%
// of winners default: a thin reliable tier, a large flaky tier, and a
// heavy ghost tier.
func ChaosModel() RealizationModel {
	return RealizationModel{Classes: []ReliabilityClass{
		{Name: "reliable", Weight: 0.40},
		{Name: "flaky", Weight: 0.35, LateShow: 0.6, MaxLateSlots: 3, Vanish: 0.6},
		{Name: "ghost", Weight: 0.25, NoShow: 1},
	}}
}

// Validate checks the model parameters.
func (m RealizationModel) Validate() error {
	if len(m.Classes) == 0 {
		return fmt.Errorf("realization model: no classes")
	}
	total := 0.0
	for i, c := range m.Classes {
		switch {
		case c.Weight < 0:
			return fmt.Errorf("realization class %d (%s): negative weight %g", i, c.Name, c.Weight)
		case c.NoShow < 0 || c.NoShow > 1:
			return fmt.Errorf("realization class %d (%s): no-show probability %g outside [0,1]", i, c.Name, c.NoShow)
		case c.LateShow < 0 || c.LateShow > 1:
			return fmt.Errorf("realization class %d (%s): late-show probability %g outside [0,1]", i, c.Name, c.LateShow)
		case c.Vanish < 0 || c.Vanish > 1:
			return fmt.Errorf("realization class %d (%s): vanish probability %g outside [0,1]", i, c.Name, c.Vanish)
		case c.LateShow > 0 && c.MaxLateSlots < 1:
			return fmt.Errorf("realization class %d (%s): late-show needs MaxLateSlots ≥ 1", i, c.Name)
		}
		total += c.Weight
	}
	if total <= 0 {
		return fmt.Errorf("realization model: class weights sum to %g", total)
	}
	return nil
}

// Realization is the drawn ground truth for one instance: per phone,
// the class it fell into and the slots it is actually present for.
// Present[i] is [Arrive[i], Depart[i]]; Arrive > Depart means the phone
// never appears.
type Realization struct {
	Class  []int       `json:"class"`
	Arrive []core.Slot `json:"arrive"`
	Depart []core.Slot `json:"depart"`
}

// Realize draws one realization for the instance's bids. The same
// (model, instance, seed) triple always yields the identical
// realization, so realization scripts replay bit-for-bit across
// engines and processes.
func (m RealizationModel) Realize(in *core.Instance, seed uint64) (*Realization, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	total := 0.0
	for _, c := range m.Classes {
		total += c.Weight
	}
	rng := NewRNG(seed)
	r := &Realization{
		Class:  make([]int, len(in.Bids)),
		Arrive: make([]core.Slot, len(in.Bids)),
		Depart: make([]core.Slot, len(in.Bids)),
	}
	for i, b := range in.Bids {
		u := rng.Float64() * total
		ci := 0
		for ci < len(m.Classes)-1 && u >= m.Classes[ci].Weight {
			u -= m.Classes[ci].Weight
			ci++
		}
		c := m.Classes[ci]
		r.Class[i] = ci
		arrive, depart := b.Arrival, b.Departure
		if rng.Float64() < c.NoShow {
			r.Arrive[i], r.Depart[i] = 1, 0 // never present
			continue
		}
		if rng.Float64() < c.LateShow {
			arrive += core.Slot(rng.UniformInt(1, c.MaxLateSlots))
		}
		if rng.Float64() < c.Vanish {
			// Uniform over [arrive-1, declared depart-1]: anywhere from
			// "gone before completing a single slot" to one slot early.
			depart = arrive - 1 + core.Slot(rng.UniformInt(0, int(depart-arrive)))
		}
		if arrive > b.Departure {
			r.Arrive[i], r.Depart[i] = 1, 0 // slipped past its own window
			continue
		}
		r.Arrive[i], r.Depart[i] = arrive, depart
	}
	return r, nil
}

// Present reports whether phone p is actually around in slot t.
func (r *Realization) Present(p core.PhoneID, t core.Slot) bool {
	return r.Arrive[p] <= t && t <= r.Depart[p]
}

// Completes reports whether phone p would deliver a task served in slot
// t: it must actually be present in that slot.
func (r *Realization) Completes(p core.PhoneID, t core.Slot) bool { return r.Present(p, t) }

// Resolve applies the realization to one slot's fresh assignments: each
// winner present in its task's slot completes; each absent winner
// defaults, and the default's replacement is resolved the same way
// until the task sticks with a present phone or goes unserved. It
// returns the lifecycle tallies for the slot and appends any immediate
// replacement payments to res.Payments so callers see every notice the
// slot produced.
func (r *Realization) Resolve(a *core.OnlineAuction, res *core.SlotResult) (completed, defaulted int, err error) {
	for _, as := range res.Assignments {
		phone := as.Phone
		for {
			if r.Completes(phone, as.Slot) {
				if err := a.Complete(phone); err != nil {
					return completed, defaulted, fmt.Errorf("resolve slot %d: %w", as.Slot, err)
				}
				completed++
				break
			}
			dr, err := a.Default(phone)
			if err != nil {
				return completed, defaulted, fmt.Errorf("resolve slot %d: %w", as.Slot, err)
			}
			defaulted++
			res.Payments = append(res.Payments, dr.Payments...)
			if dr.Replacement == core.NoPhone {
				break
			}
			phone = dr.Replacement
		}
	}
	return completed, defaulted, nil
}
