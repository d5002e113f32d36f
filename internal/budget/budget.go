// Package budget implements budget-feasible online mechanisms for the
// paper's dynamic-smartphone auction: the platform holds a hard budget
// B for the round, and total payments must never exceed it.
//
// The mechanism family follows the multiple-stage sampling-accept
// design of Zhao–Li–Ma ("OMG: How Much Should I Pay Bob in Truthful
// Online Mobile Crowdsourced Sensing?", arXiv:1306.5677) and the frugal
// variant of Zhao–Ma–Liu ("Frugal Online Incentive Mechanisms for
// Mobile Crowd Sensing", arXiv:1404.2399): the round's m slots are cut
// into K = ⌈log₂ m⌉ + 1 geometric stages whose lengths double, stage k
// may spend at most the cumulative allowance C_k = B·2^{k−K} (so the
// spend rate is uniform ≈ B/m per slot and C_K = B exactly), and each
// stage posts a price threshold re-estimated from the costs observed in
// all earlier stages. A task is assigned to the cheapest active phone
// only if that phone's bid clears the stage threshold and reserving the
// threshold keeps the cumulative spend within C_k; the winner is later
// paid its exact counterfactual critical value — the supremum of the
// reports with which it would still win, found by deterministic re-runs
// of the allocation — capped at the reserved threshold, at its reported
// departure.
//
// Three report-independence devices make the family survive the
// exhaustive strategy audit (internal/strategy) that the unbudgeted
// mechanism passes:
//
//   - Exclude-self sampling: the threshold gating phone i is computed
//     on the observed-cost sample with i's own cost removed, so i's
//     report never moves its own gate.
//   - Non-increasing effective thresholds: the gate applied in stage k
//     is min over j ≤ k of the raw stage thresholds, so delaying a
//     reported arrival into a later stage can never buy a higher
//     payment cap.
//   - Threshold reserves: the budget gate commits the full cap (not the
//     bid) per winner, so whether the budget admits a win is
//     independent of the winner's own cost report, and Σ payments ≤
//     Σ caps ≤ C_K = B holds unconditionally.
//
// budget.Auction implements core.Auction, the stepping seam (Step, Now,
// Done, Outcome, Bid, Standing, Instance, Snapshot), so the platform and
// the sim/audit harnesses run unchanged. Its round state is a
// core.Ledger: the clock, bids, tasks and allocation, admitted by the
// same check and reserve price as core.OnlineAuction's, and the same
// cost-ordered pool, which it draws from through the threshold and
// allowance gates described above. Its Snapshot writes the shared core.Checkpoint plus a
// budget section, and Restore rebuilds the stage state through the
// shared Step replay; budget.Mechanism adapts it to core.Mechanism for
// batch instances. Its setters (SetMetrics, TrackDepartures,
// SetInstruments, SetTracer) are on the concrete type, and it has no
// completion lifecycle: that exists only on core.OnlineAuction.
// docs/BUDGET.md is the usage page and docs/THEORY.md §7 the argument
// sketch.
package budget

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dynacrowd/internal/core"
)

// ErrInvalidBudget reports a round budget that is not a positive finite
// number. NaN and ±Inf compare false against every threshold, so
// without the explicit rejection they would silently disable every
// budget gate; matchable via errors.Is at config, platform, and CLI
// parse time.
var ErrInvalidBudget = errors.New("budget must be a positive finite number")

// ValidateBudget checks that b is usable as a hard round budget.
func ValidateBudget(b float64) error {
	if math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
		return fmt.Errorf("budget: %w (got %g)", ErrInvalidBudget, b)
	}
	return nil
}

// Engine estimates a stage's posted-price threshold from the costs
// observed in earlier stages. Implementations must be pure functions of
// their arguments: snapshot restore replays the round through the same
// engine and relies on bit-identical thresholds.
type Engine interface {
	// Name is a short stable identifier ("stage", "frugal"), used in
	// mechanism names and snapshots.
	Name() string
	// Threshold returns the raw stage threshold given the stage's
	// cumulative spend allowance C_k, the per-task value ν, and the
	// ascending sample of costs observed before the stage (with the
	// gated phone's own cost excluded). An empty sample must return a
	// non-binding threshold (ν): with no density information the stage
	// posts the maximum IR price and lets the allowance gate pace
	// spending.
	Threshold(allowance, value float64, sample []float64) float64
	// Breakpoints appends to dst every value Threshold can return for
	// this allowance on a sample of at most n costs, other than ν and
	// the sample's own costs. They must not depend on the sample's
	// values: the budgeted auction adds them to each winner's
	// critical-value candidate grid, because a winner's win/lose
	// boundary can sit exactly at its own threshold.
	Breakpoints(dst []float64, allowance float64, n int) []float64
}

// StageSampling is the OMG-style density-threshold engine: the
// proportional-share rule of Singer's budget-feasible mechanisms,
// applied per stage. With the sample sorted ascending it finds the
// largest i with c_(i) ≤ C_k/i — the deepest prefix of the observed
// cost distribution the allowance could pay a uniform price to — and
// posts C_k/i, capped at ν.
type StageSampling struct{}

// Name implements Engine.
func (StageSampling) Name() string { return "stage" }

// Threshold implements Engine.
func (StageSampling) Threshold(allowance, value float64, sample []float64) float64 {
	if len(sample) == 0 {
		return value
	}
	share := allowance // i = 0 fallback: post the full allowance
	for i := 1; i <= len(sample); i++ {
		if sample[i-1] > allowance/float64(i) {
			break
		}
		share = allowance / float64(i)
	}
	return math.Min(value, share)
}

// Breakpoints implements Engine: the shares C_k/i for i = 1..n (the
// i = 0 fallback posts C_k itself, the i = 1 share).
func (StageSampling) Breakpoints(dst []float64, allowance float64, n int) []float64 {
	dst = append(dst, allowance)
	for i := 2; i <= n; i++ {
		dst = append(dst, allowance/float64(i))
	}
	return dst
}

// DefaultCoverage is the Frugal engine's default coverage target.
const DefaultCoverage = 0.9

// Frugal targets minimal total payment for a coverage target rather
// than welfare-max under budget: it posts the Coverage-quantile of the
// observed cost distribution, so roughly a Coverage fraction of phones
// clear the gate at (close to) the lowest uniform price that admits
// them. The allowance still caps spending through the reserve gate; the
// quantile keeps the per-winner price near the cost floor.
type Frugal struct {
	// Coverage is the target acceptance quantile in (0, 1];
	// 0 selects DefaultCoverage.
	Coverage float64
}

// Name implements Engine.
func (Frugal) Name() string { return "frugal" }

func (f Frugal) coverage() float64 {
	if f.Coverage <= 0 || f.Coverage > 1 {
		return DefaultCoverage
	}
	return f.Coverage
}

// Threshold implements Engine.
func (f Frugal) Threshold(allowance, value float64, sample []float64) float64 {
	if len(sample) == 0 {
		return value
	}
	q := int(math.Ceil(f.coverage() * float64(len(sample))))
	if q < 1 {
		q = 1
	}
	if q > len(sample) {
		q = len(sample)
	}
	return math.Min(value, math.Min(allowance, sample[q-1]))
}

// Breakpoints implements Engine: besides ν and the quantile cost, only
// the allowance cap C_k.
func (Frugal) Breakpoints(dst []float64, allowance float64, _ int) []float64 {
	return append(dst, allowance)
}

// EngineByName resolves an engine identifier: "" or "stage" selects
// StageSampling, "frugal" the Frugal engine at DefaultCoverage.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "", "stage":
		return StageSampling{}, nil
	case "frugal":
		return Frugal{}, nil
	default:
		return nil, fmt.Errorf("budget: unknown engine %q (want stage or frugal)", name)
	}
}

// NumStages returns K = ⌈log₂ m⌉ + 1, the stage count of an m-slot
// round.
func NumStages(m core.Slot) int {
	k := 1
	for span := core.Slot(1); span < m; span <<= 1 {
		k++
	}
	return k
}

// stageEnd returns e_k = ⌈m·2^{k−K}⌉, the last slot of stage k. Stage k
// covers slots (e_{k−1}, e_k]; e_K = m.
func stageEnd(m core.Slot, k, stages int) core.Slot {
	div := core.Slot(1) << (stages - k)
	return (m + div - 1) / div
}

// allowanceAt returns C_k = B·2^{k−K}, the cumulative spend cap through
// stage k (C_K = B).
func allowanceAt(budget float64, k, stages int) float64 {
	return budget / float64(uint64(1)<<(stages-k))
}

// mergeSorted appends to dst the ascending merge of the ascending
// sample and a batch of newly observed costs, sorting batch in place
// first. dst must not share storage with either input.
func mergeSorted(dst, sorted, batch []float64) []float64 {
	sort.Float64s(batch)
	i, j := 0, 0
	for i < len(sorted) && j < len(batch) {
		if batch[j] < sorted[i] {
			dst = append(dst, batch[j])
			j++
		} else {
			dst = append(dst, sorted[i])
			i++
		}
	}
	dst = append(dst, sorted[i:]...)
	return append(dst, batch[j:]...)
}

// replaced appends to dst the ascending sample with one instance of c
// replaced by b. dst must not share storage with sample.
func replaced(dst, sample []float64, c, b float64) []float64 {
	r := sort.SearchFloat64s(sample, c)
	dst = append(dst, sample[:r]...)
	if r < len(sample) && sample[r] == c {
		r++
	}
	dst = append(dst, sample[r:]...)
	at := sort.SearchFloat64s(dst, b)
	dst = append(dst, 0)
	copy(dst[at+1:], dst[at:])
	dst[at] = b
	return dst
}
