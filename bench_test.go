// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section VI). Each paper artifact has one benchmark:
//
//	Table I  -> BenchmarkDefaultScenario        (the default workload)
//	Fig. 6   -> BenchmarkFig6WelfareVsSlots
//	Fig. 7   -> BenchmarkFig7WelfareVsArrivalRate
//	Fig. 8   -> BenchmarkFig8WelfareVsCost
//	Fig. 9   -> sigma_* metrics of BenchmarkFig6WelfareVsSlots
//	Fig. 10  -> sigma_* metrics of BenchmarkFig7WelfareVsArrivalRate
//	Fig. 11  -> sigma_* metrics of BenchmarkFig8WelfareVsCost
//
// The figure benchmarks emit the paper's series as custom benchmark
// metrics (welfare_online, welfare_offline, sigma_online,
// sigma_offline), one sub-benchmark per swept x value, so `go test
// -bench=Fig` prints the same rows the paper plots. Figures 9–11 plot
// the overpayment ratio over the identical three sweeps as Figures 6–8,
// so they have no benchmarks of their own: every sweep run emits both
// metric families at once, and the sigma_* columns ARE the Fig. 9–11
// series. The EXPERIMENTS.md-quality runs (20+ seeds) come from
// cmd/crowdsim; these benches use 2 seeds per point to keep `go test
// -bench=.` tractable.
//
// Ablation benchmarks cover the design choices called out in DESIGN.md:
// the interval offline engine vs the Hungarian oracle, the cascade vs
// oracle online payment engines, and the per-component mechanism costs.
package dynacrowd_test

import (
	"fmt"
	"strings"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/experiments"
	"dynacrowd/internal/market"
	"dynacrowd/internal/sim"
	"dynacrowd/internal/workload"
)

// benchSeeds keeps figure benchmarks affordable; crowdsim uses 20+.
const benchSeeds = 2

// runPoint executes both mechanisms on benchSeeds replications of the
// scenario and reports the figure metrics.
func runPoint(b *testing.B, scn workload.Scenario) {
	b.Helper()
	mechs := []core.Mechanism{&core.OnlineMechanism{}, &core.OfflineMechanism{}}
	for i := 0; i < b.N; i++ {
		reps, err := sim.Compare(scn, sim.Seeds(1, benchSeeds), mechs, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 { // report once, from the final iteration
			var wOn, wOff, sOn, sOff float64
			for _, r := range reps {
				wOn += r.Results[0].Welfare
				wOff += r.Results[1].Welfare
				sOn += r.Results[0].OverpaymentRatio
				sOff += r.Results[1].OverpaymentRatio
			}
			n := float64(len(reps))
			b.ReportMetric(wOn/n, "welfare_online")
			b.ReportMetric(wOff/n, "welfare_offline")
			b.ReportMetric(sOn/n, "sigma_online")
			b.ReportMetric(sOff/n, "sigma_offline")
		}
	}
}

// benchSweep runs one sub-benchmark per sweep point.
func benchSweep(b *testing.B, sw experiments.Sweep) {
	for _, pt := range sw.Points {
		b.Run(fmt.Sprintf("%s=%g", sw.Name, pt.X), func(b *testing.B) {
			runPoint(b, pt.Scenario)
		})
	}
}

// BenchmarkDefaultScenario exercises the paper's Table I configuration
// end to end: workload generation plus both mechanisms.
func BenchmarkDefaultScenario(b *testing.B) {
	runPoint(b, workload.DefaultScenario())
}

func BenchmarkFig6WelfareVsSlots(b *testing.B) {
	benchSweep(b, experiments.SlotsSweep(workload.DefaultScenario()))
}

func BenchmarkFig7WelfareVsArrivalRate(b *testing.B) {
	benchSweep(b, experiments.PhoneRateSweep(workload.DefaultScenario()))
}

func BenchmarkFig8WelfareVsCost(b *testing.B) {
	benchSweep(b, experiments.CostSweep(workload.DefaultScenario()))
}

// --- component and ablation benchmarks ---

func generated(b *testing.B, slots core.Slot) *core.Instance {
	b.Helper()
	scn := workload.DefaultScenario()
	scn.Slots = slots
	in, err := scn.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkOnlineMechanism measures the full online run (allocation +
// critical-value payments) at increasing round lengths.
func BenchmarkOnlineMechanism(b *testing.B) {
	for _, m := range []core.Slot{25, 50, 100} {
		in := generated(b, m)
		b.Run(fmt.Sprintf("slots=%d", m), func(b *testing.B) {
			mech := &core.OnlineMechanism{}
			for i := 0; i < b.N; i++ {
				if _, err := mech.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPaymentEngines ablates the critical-value payments on the
// same instance: the incremental cascade of OnlineMechanism and the
// literal per-winner Algorithm 2 re-run of OnlineOracle. Both return
// bit-identical payments (see TestCascadeMatchesOracleSweep), so the
// spread here is pure pricing cost.
func BenchmarkPaymentEngines(b *testing.B) {
	for _, m := range []core.Slot{50, 100} {
		in := generated(b, m)
		for _, mech := range []core.Mechanism{&core.OnlineMechanism{}, core.OnlineOracle{}} {
			b.Run(fmt.Sprintf("%s/slots=%d", mech.Name(), m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mech.Run(in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOfflineMechanism measures the full offline run by the
// interval engine (augmenting-path matching + deletion-exchange
// VCG payments; see docs/THEORY.md §6).
func BenchmarkOfflineMechanism(b *testing.B) {
	for _, m := range []core.Slot{25, 50, 100} {
		in := generated(b, m)
		b.Run(fmt.Sprintf("slots=%d", m), func(b *testing.B) {
			mech := &core.OfflineMechanism{}
			for i := 0; i < b.N; i++ {
				if _, err := mech.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOfflineEngines ablates the offline solves on the same
// instances: OfflineMechanism's interval fast path against the dense
// Hungarian solve of OfflineOracle. Both return the same welfare and
// (modulo ties) the same payments — see TestOfflineDifferentialSweep —
// so the spread here is pure solver cost.
func BenchmarkOfflineEngines(b *testing.B) {
	for _, m := range []core.Slot{25, 50, 100} {
		in := generated(b, m)
		for _, eng := range []struct {
			name string
			mech core.Mechanism
		}{
			{"interval", &core.OfflineMechanism{}},
			{"hungarian", core.OfflineOracle{}},
		} {
			b.Run(fmt.Sprintf("%s/slots=%d", eng.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.mech.Run(in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOfflineSweep pushes the interval engine to the 10⁴–10⁵ phone
// scale the dense engines cannot reach (the Hungarian oracle is
// O((n+γ)³): at 10⁴ phones that is ~10¹² steps, so it is deliberately
// absent here — use BenchmarkOfflineEngines for the head-to-head at
// feasible sizes). Phones per round = Slots × PhoneRate.
func BenchmarkOfflineSweep(b *testing.B) {
	for _, phones := range []int{10_000, 30_000, 100_000} {
		scn := workload.DefaultScenario()
		scn.Slots = 500
		scn.PhoneRate = float64(phones) / float64(scn.Slots)
		scn.TaskRate = scn.PhoneRate / 2
		in, err := scn.Generate(1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("phones=%d", phones), func(b *testing.B) {
			mech := &core.OfflineMechanism{}
			b.ReportMetric(float64(in.NumPhones()), "phones/op")
			b.ReportMetric(float64(in.NumTasks()), "tasks/op")
			for i := 0; i < b.N; i++ {
				if _, err := mech.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamingSlot measures the per-slot cost of the streaming
// online auction (the platform's hot path), including departures'
// payment replays.
func BenchmarkStreamingSlot(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oa, err := core.NewOnlineAuction(in.Slots, in.Value, false)
		if err != nil {
			b.Fatal(err)
		}
		for t := core.Slot(1); t <= in.Slots; t++ {
			if _, err := oa.Step(byArrival[t], perSlot[t-1]); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Slots per op is more interpretable than ns for this benchmark.
	b.ReportMetric(float64(in.Slots), "slots/op")
}

// BenchmarkStreamingRound steps one round at the engine-heavy scale
// through OnlineAuction.Step and Outcome: the heavy-traffic scenario at
// 2000 phones and 200 tasks per slot, about 10^5 bids over 50 slots.
// BenchmarkStreamingSlot's ~300-bid round stays small enough that
// append doubles its slices anyway; this one shows what growing the
// round's storage costs, in B/op as well as ns/op.
func BenchmarkStreamingRound(b *testing.B) {
	scn := workload.HeavyTrafficScenario()
	scn.PhoneRate, scn.TaskRate = 2000, 200
	in, err := scn.Generate(5)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oa, err := core.NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
		if err != nil {
			b.Fatal(err)
		}
		for t := core.Slot(1); t <= in.Slots; t++ {
			if _, err := oa.Step(byArrival[t], perSlot[t-1]); err != nil {
				b.Fatal(err)
			}
		}
		oa.Outcome()
	}
	b.ReportMetric(float64(len(in.Bids)), "bids/op")
}

// BenchmarkWorkloadGeneration isolates the generator.
func BenchmarkWorkloadGeneration(b *testing.B) {
	scn := workload.DefaultScenario()
	for i := 0; i < b.N; i++ {
		if _, err := scn.Generate(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompletionLifecycle prices the unreliable-winner pipeline
// (docs/PLATFORM.md "Failure model") on the default workload. The
// "disabled" variant is the pre-lifecycle baseline — tracking off, the
// slot path must not regress. "all-complete" adds the bookkeeping of a
// fully reliable population (every winner reports). "chaos-defaults"
// realizes the chaos reliability mixture against the stream, so each
// slot pays the full default path: winner teardown, replacement scan,
// repricing, and clawback accounting.
func BenchmarkCompletionLifecycle(b *testing.B) {
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
	rel, err := workload.ChaosModel().Realize(in, 7)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, track bool, resolve func(*core.OnlineAuction, *core.SlotResult) int) {
		defaults := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			oa, err := core.NewOnlineAuction(in.Slots, in.Value, false)
			if err != nil {
				b.Fatal(err)
			}
			oa.TrackCompletions(track)
			for t := core.Slot(1); t <= in.Slots; t++ {
				res, err := oa.Step(byArrival[t], perSlot[t-1])
				if err != nil {
					b.Fatal(err)
				}
				if resolve != nil {
					defaults += resolve(oa, res)
				}
			}
		}
		b.ReportMetric(float64(in.Slots), "slots/op")
		b.ReportMetric(float64(defaults)/float64(b.N), "defaults/op")
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, false, nil)
	})
	b.Run("all-complete", func(b *testing.B) {
		run(b, true, func(oa *core.OnlineAuction, res *core.SlotResult) int {
			for _, as := range res.Assignments {
				if err := oa.Complete(as.Phone); err != nil {
					b.Fatal(err)
				}
			}
			return 0
		})
	})
	b.Run("chaos-defaults", func(b *testing.B) {
		run(b, true, func(oa *core.OnlineAuction, res *core.SlotResult) int {
			_, defaulted, err := rel.Resolve(oa, res)
			if err != nil {
				b.Fatal(err)
			}
			return defaulted
		})
	})
}

// --- extension benchmarks ---

// BenchmarkMarketRounds measures the multi-round market driver.
func BenchmarkMarketRounds(b *testing.B) {
	scn := workload.DefaultScenario()
	scn.Slots = 20
	for i := 0; i < b.N; i++ {
		if _, err := market.Run(market.Config{
			Rounds: 5, Scenario: scn, Seed: uint64(i), ReturnProbability: 0.5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBudgetSweep records the welfare-per-budget comparison
// (docs/BUDGET.md): both budget engines at B ∈ {¼, ½, 1} of the
// unbudgeted mechanism's mean payment against the unbudgeted greedy,
// one sub-benchmark per workload-zoo scenario, emitting the
// welfare-per-unit-committed series as custom metrics
// (wpb_<engine>_f<fraction>, wpb_unbudgeted). Recorded into
// BENCH.json by `make budget-bench`.
func BenchmarkBudgetSweep(b *testing.B) {
	base := workload.DefaultScenario()
	for _, src := range experiments.BudgetSources(base) {
		b.Run("scenario="+src.Name, func(b *testing.B) {
			opt := experiments.Options{Seeds: 3, Scenario: base}
			var res *experiments.BudgetSweepResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.RunBudgetSweep(opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, row := range res.Rows {
				if row.Scenario != src.Name {
					continue
				}
				if row.Budget == 0 {
					b.ReportMetric(row.WelfarePerUnit, "wpb_unbudgeted")
					continue
				}
				eng := "stage"
				if strings.Contains(row.Mechanism, "frugal") {
					eng = "frugal"
				}
				b.ReportMetric(row.WelfarePerUnit, fmt.Sprintf("wpb_%s_f%g", eng, row.Fraction))
			}
		})
	}
}
