package experiments

import (
	"fmt"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/core"
	"dynacrowd/internal/sim"
	"dynacrowd/internal/stats"
	"dynacrowd/internal/workload"
)

// BudgetSource names one workload-zoo generator for the budget sweep.
// sim.Compare only accepts the base Scenario type, so the budget sweep
// carries its own generator closure to range over the zoo.
type BudgetSource struct {
	Name string
	Gen  func(seed uint64) (*core.Instance, error)
}

// BudgetSources returns the workload-zoo scenarios the budget sweep
// covers: the paper's default round, the thinned heavy-traffic burst
// round, and a rush-hour phone-arrival mixture over the default round.
func BudgetSources(base workload.Scenario) []BudgetSource {
	heavy := workload.HeavyTrafficQuick()
	rush := workload.RushHourProfile{Peak: 3}
	return []BudgetSource{
		{Name: "default", Gen: base.Generate},
		{Name: "heavy-burst", Gen: heavy.Generate},
		{Name: "rush-hour", Gen: func(seed uint64) (*core.Instance, error) {
			return base.GenerateWithProfiles(seed, rush, workload.FlatProfile{})
		}},
	}
}

// BudgetFractions are the swept budget levels, as fractions of the
// unbudgeted online mechanism's mean total payment on the same
// scenario: 1/4 (strongly binding) to 1 (barely binding).
var BudgetFractions = []float64{0.25, 0.5, 1.0}

// BudgetRow is one (scenario, mechanism, budget) cell of the sweep,
// averaged across seeds. Budget is 0 for the unbudgeted reference; its
// WelfarePerUnit divides by what the mechanism actually paid, so every
// row answers "welfare bought per unit of money committed".
type BudgetRow struct {
	Scenario  string
	Mechanism string  // the mechanism's name, without the budget Budget holds
	Budget    float64 // B, or 0 for the unbudgeted reference
	Fraction  float64 // B as a fraction of the unbudgeted mean payment

	Welfare        float64 // mean social welfare ω
	Payment        float64 // mean total payment
	ServiceRate    float64 // mean fraction of tasks served
	WelfarePerUnit float64 // mean welfare / budget (or / payment when B = 0)
}

// BudgetSweepResult is the executed welfare-per-budget comparison.
type BudgetSweepResult struct {
	Rows []BudgetRow
	// Figure plots welfare-per-unit against the budget fraction, one
	// series per (scenario, mechanism).
	Figure *stats.Figure
}

// RunBudgetSweep compares the budgeted engines against the unbudgeted
// online greedy across the workload zoo. For each scenario it first
// measures the unbudgeted mechanism's mean payment P, then runs both
// budget engines at B ∈ BudgetFractions·P on the identical instances,
// recording welfare, spend, and welfare-per-unit-committed.
func RunBudgetSweep(opt Options) (*BudgetSweepResult, error) {
	opt = opt.withDefaults()
	seeds := sim.Seeds(opt.BaseSeed, opt.Seeds)
	res := &BudgetSweepResult{
		Figure: &stats.Figure{
			Title:  "Welfare per unit budget vs budget fraction (extension)",
			XLabel: "budget as fraction of unbudgeted payment",
			YLabel: "welfare per unit committed ω/B",
		},
	}

	for _, src := range BudgetSources(opt.Scenario) {
		// Generate every seed's instance once; all mechanisms and budget
		// levels see the identical rounds.
		ins := make([]*core.Instance, len(seeds))
		for i, seed := range seeds {
			in, err := src.Gen(seed)
			if err != nil {
				return nil, fmt.Errorf("budget sweep: %s: %w", src.Name, err)
			}
			ins[i] = in
		}

		online := &core.OnlineMechanism{}
		ref, err := meanMetrics(ins, seeds, online)
		if err != nil {
			return nil, fmt.Errorf("budget sweep: %s: %w", src.Name, err)
		}
		if ref.Payment <= 0 {
			return nil, fmt.Errorf("budget sweep: %s: unbudgeted mechanism paid nothing; cannot scale budgets", src.Name)
		}
		refRow := ref
		refRow.Scenario = src.Name
		refRow.WelfarePerUnit = ref.Welfare / ref.Payment
		res.Rows = append(res.Rows, refRow)
		refSeries := res.Figure.AddSeries(src.Name + "/unbudgeted")

		engines := []budget.Engine{budget.StageSampling{}, budget.Frugal{Coverage: budget.DefaultCoverage}}
		series := make(map[string]*stats.Series, len(engines))
		for _, eng := range engines {
			series[eng.Name()] = res.Figure.AddSeries(src.Name + "/" + eng.Name())
		}

		for _, frac := range BudgetFractions {
			b := frac * ref.Payment
			// The unbudgeted reference replots at every fraction so the
			// figure shows the gap it leaves.
			refSamples := make([]float64, len(ins))
			for i := range refSamples {
				refSamples[i] = ref.Welfare / ref.Payment
			}
			refSeries.Add(frac, refSamples)

			for _, eng := range engines {
				mech := &budget.Mechanism{Budget: b, Engine: eng}
				row, samples, err := budgetPoint(ins, seeds, mech, b)
				if err != nil {
					return nil, fmt.Errorf("budget sweep: %s B=%g: %w", src.Name, b, err)
				}
				row.Scenario = src.Name
				row.Mechanism = "budget-" + eng.Name()
				row.Fraction = frac
				res.Rows = append(res.Rows, row)
				series[eng.Name()].Add(frac, samples)
			}
		}
	}
	return res, nil
}

// meanMetrics runs one mechanism over the prepared instances and
// averages the sweep metrics.
func meanMetrics(ins []*core.Instance, seeds []uint64, mech core.Mechanism) (BudgetRow, error) {
	row := BudgetRow{Mechanism: mech.Name()}
	for i, in := range ins {
		m, err := sim.RunInstance(in, seeds[i], mech)
		if err != nil {
			return row, err
		}
		row.Welfare += m.Welfare
		row.Payment += m.TotalPayment
		row.ServiceRate += sim.ServiceRate(m)
	}
	n := float64(len(ins))
	row.Welfare /= n
	row.Payment /= n
	row.ServiceRate /= n
	return row, nil
}

// budgetPoint runs one budgeted mechanism at budget b, checking the
// feasibility invariant on every round and returning the per-seed
// welfare-per-unit samples for the figure.
func budgetPoint(ins []*core.Instance, seeds []uint64, mech core.Mechanism, b float64) (BudgetRow, []float64, error) {
	row := BudgetRow{Budget: b}
	samples := make([]float64, len(ins))
	for i, in := range ins {
		m, err := sim.RunInstance(in, seeds[i], mech)
		if err != nil {
			return row, nil, err
		}
		if m.TotalPayment > b+1e-9 {
			return row, nil, fmt.Errorf("%s paid %g over budget %g on seed %d",
				mech.Name(), m.TotalPayment, b, seeds[i])
		}
		row.Welfare += m.Welfare
		row.Payment += m.TotalPayment
		row.ServiceRate += sim.ServiceRate(m)
		samples[i] = m.Welfare / b
	}
	n := float64(len(ins))
	row.Welfare /= n
	row.Payment /= n
	row.ServiceRate /= n
	row.WelfarePerUnit = row.Welfare / b
	return row, samples, nil
}
