package experiments

import (
	"strings"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/stats"
	"dynacrowd/internal/workload"
)

// tinyBase keeps test sweeps fast on one core.
func tinyBase() workload.Scenario {
	s := workload.DefaultScenario()
	s.Slots = 12
	s.PhoneRate = 3
	s.TaskRate = 1.5
	return s
}

// tinySweep trims a sweep to its first two points.
func tinySweep(sw Sweep) Sweep {
	sw.Points = sw.Points[:2]
	return sw
}

func TestSweepDefinitionsCoverPaperFigures(t *testing.T) {
	sweeps := Sweeps(workload.DefaultScenario())
	if len(sweeps) != 3 {
		t.Fatalf("got %d sweeps", len(sweeps))
	}
	want := map[string][2]float64{ // figure -> first/last x
		"slots":      {30, 80},
		"phone-rate": {4, 8},
		"cost":       {10, 50},
	}
	figures := map[string]bool{}
	for _, sw := range sweeps {
		r, ok := want[sw.Name]
		if !ok {
			t.Fatalf("unexpected sweep %q", sw.Name)
		}
		if sw.Points[0].X != r[0] || sw.Points[len(sw.Points)-1].X != r[1] {
			t.Fatalf("sweep %s spans [%g,%g], want [%g,%g]",
				sw.Name, sw.Points[0].X, sw.Points[len(sw.Points)-1].X, r[0], r[1])
		}
		figures[sw.Figures[0]] = true
		figures[sw.Figures[1]] = true
	}
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		if !figures[id] {
			t.Fatalf("paper figure %s not covered", id)
		}
	}
}

func TestSweepPointsPerturbOnlyTheirParameter(t *testing.T) {
	base := workload.DefaultScenario()
	for _, pt := range SlotsSweep(base).Points {
		s := pt.Scenario
		s.Slots = base.Slots
		if s != base {
			t.Fatalf("slots sweep changed more than m: %+v", pt.Scenario)
		}
	}
	for _, pt := range PhoneRateSweep(base).Points {
		s := pt.Scenario
		s.PhoneRate = base.PhoneRate
		if s != base {
			t.Fatalf("rate sweep changed more than λ: %+v", pt.Scenario)
		}
	}
	for _, pt := range CostSweep(base).Points {
		s := pt.Scenario
		s.MeanCost = base.MeanCost
		if s != base {
			t.Fatalf("cost sweep changed more than c̄: %+v", pt.Scenario)
		}
	}
}

func TestRunSweepSmall(t *testing.T) {
	sw := tinySweep(SlotsSweep(tinyBase()))
	res, err := RunSweep(sw, Options{Seeds: 4, BaseSeed: 3, Scenario: tinyBase()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Welfare.Series) != 2 || len(res.Overpayment.Series) != 2 {
		t.Fatal("figures must hold online and offline series")
	}
	for _, s := range res.Welfare.Series {
		if len(s.Points) != len(sw.Points) {
			t.Fatalf("series %s has %d points, want %d", s.Name, len(s.Points), len(sw.Points))
		}
		for _, p := range s.Points {
			if p.Summary.N != 4 {
				t.Fatalf("point at x=%g has %d samples", p.X, p.Summary.N)
			}
		}
	}
	if len(res.Replications) != len(sw.Points) {
		t.Fatal("raw replications missing")
	}
	// Offline dominates online at every point.
	on, off := res.Welfare.Series[0], res.Welfare.Series[1]
	for i := range on.Points {
		if off.Points[i].Summary.Mean < on.Points[i].Summary.Mean-1e-9 {
			t.Fatalf("offline below online at x=%g", on.Points[i].X)
		}
	}
}

func TestRunSweepPropagatesErrors(t *testing.T) {
	sw := tinySweep(SlotsSweep(tinyBase()))
	sw.Points[0].Scenario.MeanCost = -1
	if _, err := RunSweep(sw, Options{Seeds: 2}); err == nil {
		t.Fatal("want error")
	}
}

func TestCheckShapesOnRealRun(t *testing.T) {
	base := tinyBase()
	var results []*Result
	for _, sw := range []Sweep{
		{Name: "slots", XLabel: "m", Figures: [2]string{"fig6", "fig9"},
			Points: []Point{slotPoint(base, 10), slotPoint(base, 20)}},
	} {
		r, err := RunSweep(sw, Options{Seeds: 12, BaseSeed: 5, Scenario: base})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	reports := CheckShapes(results)
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, rep := range reports {
		if !rep.OK() {
			t.Fatalf("%s shape violations: %v", rep.Figure, rep.Violations)
		}
		if len(rep.Checks) == 0 {
			t.Fatalf("%s ran no checks", rep.Figure)
		}
	}
}

func slotPoint(base workload.Scenario, m int) Point {
	s := base
	s.Slots = core.Slot(m)
	return Point{X: float64(m), Scenario: s}
}

// TestCheckShapesFlagsViolations feeds a fabricated inverted result.
func TestCheckShapesFlagsViolations(t *testing.T) {
	r := &Result{Sweep: Sweep{Name: "slots", Figures: [2]string{"fig6", "fig9"}}}
	r.Welfare = fabricated([][2]float64{{10, 5}, {20, 9}})           // offline below online
	r.Overpayment = fabricated([][2]float64{{0.5, 0.9}, {0.5, 0.9}}) // fine
	reports := CheckShapes([]*Result{r})
	if reports[0].OK() {
		t.Fatal("inverted welfare not flagged")
	}
	if !reports[1].OK() {
		t.Fatalf("valid overpayment flagged: %v", reports[1].Violations)
	}
	if !strings.Contains(reports[0].Violations[0], "offline") {
		t.Fatalf("violation text unclear: %q", reports[0].Violations[0])
	}
}

// fabricated builds a two-series figure from (online, offline) means at
// x = 1, 2, ...
func fabricated(points [][2]float64) *stats.Figure {
	f := &stats.Figure{}
	on := f.AddSeries("online")
	off := f.AddSeries("offline")
	for i, p := range points {
		on.Add(float64(i+1), []float64{p[0]})
		off.Add(float64(i+1), []float64{p[1]})
	}
	return f
}
