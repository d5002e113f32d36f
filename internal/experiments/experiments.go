// Package experiments defines and runs the paper's evaluation (Section
// VI): three parameter sweeps — round length m (Figs. 6, 9), smartphone
// arrival rate λ (Figs. 7, 10), and average real cost c̄ (Figs. 8, 11) —
// each measuring social welfare and overpayment ratio for the online and
// offline mechanisms on identical workloads. Every paper figure is one
// (sweep, metric) pair; a sweep run therefore regenerates two figures at
// once.
package experiments

import (
	"fmt"

	"dynacrowd/internal/core"
	"dynacrowd/internal/sim"
	"dynacrowd/internal/stats"
	"dynacrowd/internal/workload"
)

// Options controls sweep execution.
type Options struct {
	// Seeds is the number of replications per sweep point (default 20).
	Seeds int
	// BaseSeed derives the replication seeds (default 1).
	BaseSeed uint64
	// Workers bounds parallelism (≤ 0: GOMAXPROCS).
	Workers int
	// Scenario is the baseline configuration each sweep perturbs
	// (zero value: workload.DefaultScenario).
	Scenario workload.Scenario
	// Online substitutes an alternative implementation for the paper's
	// online mechanism in every sweep (nil: core.OnlineMechanism).
	// crowdsim -budget plugs the budgeted mechanism in here.
	Online core.Mechanism
}

func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 20
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.Scenario == (workload.Scenario{}) {
		o.Scenario = workload.DefaultScenario()
	}
	return o
}

// Point is one swept position: the x coordinate and the scenario to run.
type Point struct {
	X        float64
	Scenario workload.Scenario
}

// Sweep is a named list of scenario points over one swept parameter.
type Sweep struct {
	Name    string // "slots", "phone-rate", "cost"
	XLabel  string
	Figures [2]string // paper figure IDs: [welfare, overpayment]
	Points  []Point
}

// SlotsSweep varies the number of slots m (paper Figs. 6 and 9).
func SlotsSweep(base workload.Scenario) Sweep {
	sw := Sweep{Name: "slots", XLabel: "number of slots m", Figures: [2]string{"fig6", "fig9"}}
	for m := 30; m <= 80; m += 10 {
		s := base
		s.Slots = core.Slot(m)
		sw.Points = append(sw.Points, Point{X: float64(m), Scenario: s})
	}
	return sw
}

// PhoneRateSweep varies the smartphone arrival rate λ (Figs. 7 and 10).
func PhoneRateSweep(base workload.Scenario) Sweep {
	sw := Sweep{Name: "phone-rate", XLabel: "arrival rate λ of smartphones", Figures: [2]string{"fig7", "fig10"}}
	for l := 4; l <= 8; l++ {
		s := base
		s.PhoneRate = float64(l)
		sw.Points = append(sw.Points, Point{X: float64(l), Scenario: s})
	}
	return sw
}

// CostSweep varies the average real cost c̄ (Figs. 8 and 11).
func CostSweep(base workload.Scenario) Sweep {
	sw := Sweep{Name: "cost", XLabel: "average of real costs", Figures: [2]string{"fig8", "fig11"}}
	for c := 10; c <= 50; c += 10 {
		s := base
		s.MeanCost = float64(c)
		sw.Points = append(sw.Points, Point{X: float64(c), Scenario: s})
	}
	return sw
}

// Result is one executed sweep: both metric figures plus the raw
// replications for further analysis.
type Result struct {
	Sweep       Sweep
	Welfare     *stats.Figure
	Overpayment *stats.Figure
	ServiceRate *stats.Figure
	// Replications[pointIdx] holds the per-seed comparisons at that point
	// (mechanism order: online, offline).
	Replications [][]sim.Replication
}

// mechanisms returns the two paper mechanisms in figure order,
// honouring the Online override.
func (o Options) mechanisms() []core.Mechanism {
	online := o.Online
	if online == nil {
		online = &core.OnlineMechanism{}
	}
	return []core.Mechanism{online, &core.OfflineMechanism{}}
}

const (
	mechOnline = iota
	mechOffline
)

// RunSweep executes every point of the sweep and assembles the figures.
func RunSweep(sw Sweep, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	seeds := sim.Seeds(opt.BaseSeed, opt.Seeds)

	res := &Result{
		Sweep: sw,
		Welfare: &stats.Figure{
			Title:  fmt.Sprintf("Social welfare vs %s (%s)", sw.XLabel, sw.Figures[0]),
			XLabel: sw.XLabel, YLabel: "social welfare ω",
		},
		Overpayment: &stats.Figure{
			Title:  fmt.Sprintf("Overpayment ratio vs %s (%s)", sw.XLabel, sw.Figures[1]),
			XLabel: sw.XLabel, YLabel: "overpayment ratio σ",
		},
		ServiceRate: &stats.Figure{
			Title:  fmt.Sprintf("Service rate vs %s (extension)", sw.XLabel),
			XLabel: sw.XLabel, YLabel: "fraction of tasks served",
		},
	}
	wOn, wOff := res.Welfare.AddSeries("online"), res.Welfare.AddSeries("offline")
	oOn, oOff := res.Overpayment.AddSeries("online"), res.Overpayment.AddSeries("offline")
	sOn, sOff := res.ServiceRate.AddSeries("online"), res.ServiceRate.AddSeries("offline")

	for _, pt := range sw.Points {
		reps, err := sim.Compare(pt.Scenario, seeds, opt.mechanisms(), opt.Workers)
		if err != nil {
			return nil, fmt.Errorf("sweep %s at %g: %w", sw.Name, pt.X, err)
		}
		res.Replications = append(res.Replications, reps)
		wOn.Add(pt.X, sim.Column(reps, mechOnline, sim.Welfare))
		wOff.Add(pt.X, sim.Column(reps, mechOffline, sim.Welfare))
		oOn.Add(pt.X, sim.Column(reps, mechOnline, sim.OverpaymentRatio))
		oOff.Add(pt.X, sim.Column(reps, mechOffline, sim.OverpaymentRatio))
		sOn.Add(pt.X, sim.Column(reps, mechOnline, sim.ServiceRate))
		sOff.Add(pt.X, sim.Column(reps, mechOffline, sim.ServiceRate))
	}
	return res, nil
}

// Sweeps returns the paper's three sweeps against the given base
// scenario.
func Sweeps(base workload.Scenario) []Sweep {
	return []Sweep{SlotsSweep(base), PhoneRateSweep(base), CostSweep(base)}
}
