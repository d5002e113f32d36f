package budget_test

import (
	"fmt"
	"testing"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// BenchmarkBudgetedSlot measures per-round throughput of the budgeted
// engines on the paper's default workload at a binding and a loose
// budget, against the unbudgeted sequential engine as the baseline.
// The budgeted engines pay exact counterfactual critical values —
// each settled winner re-runs the observed round O(log n) times — so
// the interesting number is how far that pricing sits from the
// baseline at realistic round sizes. Recorded into BENCH.json by
// `make budget-bench`.
func BenchmarkBudgetedSlot(b *testing.B) {
	scn := workload.DefaultScenario()
	in, err := scn.Generate(2)
	if err != nil {
		b.Fatal(err)
	}
	perSlot := in.TasksPerSlot()
	byArrival := make([][]core.StreamBid, in.Slots+1)
	for _, bid := range in.Bids {
		byArrival[bid.Arrival] = append(byArrival[bid.Arrival], core.StreamBid{
			Departure: bid.Departure, Cost: bid.Cost,
		})
	}
	run := func(b *testing.B, boot func() (core.Auction, error)) {
		b.Helper()
		var paid, welfare float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := boot()
			if err != nil {
				b.Fatal(err)
			}
			for t := core.Slot(1); t <= in.Slots; t++ {
				if _, err := a.Step(byArrival[t], perSlot[t-1]); err != nil {
					b.Fatal(err)
				}
			}
			out := a.Outcome()
			paid, welfare = out.TotalPayment(), out.Welfare
		}
		b.ReportMetric(float64(in.Slots), "slots/op")
		b.ReportMetric(float64(len(in.Bids)), "bids/op")
		b.ReportMetric(paid, "paid/op")
		b.ReportMetric(welfare, "welfare/op")
	}

	b.Run("engine=unbudgeted", func(b *testing.B) {
		run(b, func() (core.Auction, error) {
			return core.NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
		})
	})
	for _, engName := range []string{"stage", "frugal"} {
		eng, err := budget.EngineByName(engName)
		if err != nil {
			b.Fatal(err)
		}
		for _, bud := range []float64{200, 2000} {
			b.Run(fmt.Sprintf("engine=%s/budget=%g", engName, bud), func(b *testing.B) {
				run(b, func() (core.Auction, error) {
					return budget.New(in.Slots, in.Value, in.AllocateAtLoss, bud, eng)
				})
			})
		}
	}
}
