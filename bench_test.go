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
	"dynacrowd/internal/multitask"
	"dynacrowd/internal/sim"
	"dynacrowd/internal/typed"
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

// BenchmarkPaymentEngines ablates the critical-value payment engines on
// the same instance: the incremental cascade (default) and the literal
// per-winner Algorithm 2 oracle. Both return bit-identical payments (see
// TestCascadeMatchesOracleSweep), so the spread here is pure engine cost.
func BenchmarkPaymentEngines(b *testing.B) {
	for _, m := range []core.Slot{50, 100} {
		in := generated(b, m)
		for _, mech := range sim.EngineMechs() {
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

// BenchmarkOfflineMechanism measures the full offline run under the
// default interval engine (augmenting-path matching + deletion-exchange
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

// BenchmarkOfflineEngines ablates the offline solver engines on the same
// instances: the interval fast path against the dense Hungarian oracle.
// Both return the same welfare and (modulo ties) the same payments —
// see TestOfflineDifferentialSweep — so the spread here is pure engine
// cost.
func BenchmarkOfflineEngines(b *testing.B) {
	for _, m := range []core.Slot{25, 50, 100} {
		in := generated(b, m)
		for _, eng := range []core.OfflineEngine{
			core.IntervalOffline, core.HungarianOffline,
		} {
			b.Run(fmt.Sprintf("%s/slots=%d", eng.Name(), m), func(b *testing.B) {
				mech := &core.OfflineMechanism{Engine: eng}
				for i := 0; i < b.N; i++ {
					if _, err := mech.Run(in); err != nil {
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

// BenchmarkTypedMechanisms measures the heterogeneous-sensing extension
// (internal/typed): offline VCG vs online greedy with binary-search
// critical payments.
func BenchmarkTypedMechanisms(b *testing.B) {
	rng := workload.NewRNG(31)
	build := func(slots core.Slot, phones int) *typed.Instance {
		in := &typed.Instance{Slots: slots, Values: []float64{20, 45, 30}}
		for i := 0; i < phones; i++ {
			a := core.Slot(1 + rng.Intn(int(slots)))
			d := a + core.Slot(rng.Intn(int(slots-a)+1))
			caps := typed.Caps(0)
			if rng.Intn(3) == 0 {
				caps |= typed.Caps(1)
			}
			if rng.Intn(2) == 0 {
				caps |= typed.Caps(2)
			}
			in.Bids = append(in.Bids, typed.Bid{
				Phone: core.PhoneID(i), Arrival: a, Departure: d,
				Cost: rng.Uniform(1, 18), Caps: caps,
			})
		}
		for t := core.Slot(1); t <= slots; t++ {
			for k := rng.Poisson(1.5); k > 0; k-- {
				in.Tasks = append(in.Tasks, typed.Task{
					ID: core.TaskID(len(in.Tasks)), Arrival: t, Kind: typed.Kind(rng.Intn(3)),
				})
			}
		}
		return in
	}
	in := build(30, 120)
	b.Run("offline", func(b *testing.B) {
		mech := &typed.OfflineMechanism{}
		for i := 0; i < b.N; i++ {
			if _, err := mech.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("online", func(b *testing.B) {
		mech := &typed.OnlineMechanism{}
		for i := 0; i < b.N; i++ {
			if _, err := mech.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultitaskOffline measures the capacity extension's flow-based
// VCG auction (internal/multitask).
func BenchmarkMultitaskOffline(b *testing.B) {
	rng := workload.NewRNG(37)
	in := &multitask.Instance{Slots: 30, Value: 30}
	for i := 0; i < 80; i++ {
		a := core.Slot(1 + rng.Intn(30))
		d := a + core.Slot(rng.Intn(int(30-a)+1))
		in.Bids = append(in.Bids, multitask.Bid{
			Phone: core.PhoneID(i), Arrival: a, Departure: d,
			Cost: rng.Uniform(1, 25), Capacity: 1 + rng.Intn(3),
		})
	}
	for t := core.Slot(1); t <= 30; t++ {
		for k := rng.Poisson(2); k > 0; k-- {
			in.Tasks = append(in.Tasks, core.Task{ID: core.TaskID(len(in.Tasks)), Arrival: t})
		}
	}
	mech := &multitask.OfflineMechanism{}
	for i := 0; i < b.N; i++ {
		if _, err := mech.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

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
// BENCH_PR10.json by `make budget-bench`.
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
