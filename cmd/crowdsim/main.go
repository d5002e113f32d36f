// Command crowdsim regenerates the paper's evaluation figures
// (Figs. 6-11) by sweeping round length, smartphone arrival rate, and
// average cost, running the online and offline mechanisms on identical
// workloads, and rendering the resulting series as ASCII tables, charts,
// or CSV.
//
// Usage:
//
//	crowdsim [flags]
//
//	-figure id     figure to run: fig6..fig11, "baselines", "robustness",
//	               "reserve", "anytime", "quality", "budget", or "all"
//	               (default all; "baselines" adds the extension figure
//	               comparing second-price / first-price / random /
//	               greedy-by-cost against the paper's mechanisms;
//	               "budget" runs the welfare-per-budget comparison of
//	               the budgeted engines against the unbudgeted greedy
//	               across the workload zoo, see docs/BUDGET.md)
//	-seeds n       replications per sweep point (default 20)
//	-seed base     base seed for the replication set (default 1)
//	-format f      table | chart | csv (default table)
//	-check         verify the paper's shape claims and report
//	-value v       per-task value ν override (default scenario's 30)
//	-budget B      hard round budget: substitute the budgeted online
//	               mechanism (stage-sampling thresholds, counterfactual
//	               critical-value payments, Σ payments ≤ B) for the
//	               paper's online mechanism in every sweep (default 0 =
//	               unbudgeted)
//	-budget-engine e  budget threshold engine: stage (default) | frugal
//	-quick         3 seeds and a thinned sweep, for smoke runs
//	-cpuprofile f  write a CPU profile of the run to f (go tool pprof)
//	-memprofile f  write an end-of-run heap profile to f
//	-obs-addr a    serve live Prometheus metrics (mechanism latency
//	               histograms, round counters) and pprof on this address
//	               while the sweep runs; empty disables
//	-load          run the platform load harness instead of figures:
//	               -load-agents in-process virtual agents connect, bid,
//	               and drain slot fan-out from a real platform.Server
//	               for -load-ticks slot ticks, in each -load-wire format
//	               (json | binary | both). Prints benchjson-compatible
//	               result lines (bids/s, msgs/s, fan-out p50/p99,
//	               allocs/msg); see docs/LOADTEST.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/core"
	"dynacrowd/internal/experiments"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/sim"
	"dynacrowd/internal/stats"
	"dynacrowd/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crowdsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crowdsim", flag.ContinueOnError)
	figure := fs.String("figure", "all", "figure to run: fig6..fig11 or all")
	seeds := fs.Int("seeds", 20, "replications per sweep point")
	seed := fs.Uint64("seed", 1, "base seed")
	format := fs.String("format", "table", "output format: table | chart | csv")
	check := fs.Bool("check", false, "verify the paper's shape claims")
	value := fs.Float64("value", 0, "per-task value ν override (0 = scenario default)")
	budgetFlag := fs.Float64("budget", 0, "hard round budget B for the online mechanism (0 = unbudgeted)")
	budgetEngine := fs.String("budget-engine", "stage", "budget threshold engine: stage | frugal")
	quick := fs.Bool("quick", false, "3 seeds and thinned sweeps")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	obsAddr := fs.String("obs-addr", "", "observability HTTP address (metrics, pprof); empty disables")
	load := fs.Bool("load", false, "run the platform load harness instead of figures (see docs/LOADTEST.md)")
	loadAgents := fs.Int("load-agents", 5000, "load: concurrent virtual agents")
	loadTicks := fs.Int("load-ticks", 50, "load: measured slot ticks")
	loadTasks := fs.Int("load-tasks", 0, "load: tasks announced per measured tick (0 = pure fan-out)")
	loadQueue := fs.Int("load-queue", 256, "load: per-session outbound queue depth")
	loadWire := fs.String("load-wire", "both", "load: wire format to drive: json | binary | both")
	loadTransport := fs.String("load-transport", "mem", "load: transport: mem (net.Pipe, no fds) | tcp (loopback)")
	loadMinMsgs := fs.Float64("load-min-msgs", 0, "load: fail if sustained msgs/s falls below this floor (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	if *obsAddr != "" {
		o, err := obs.New(obs.Options{Addr: *obsAddr})
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		defer o.Close()
		core.SetDefaultMetrics(core.NewMetrics(o.Registry))
		defer core.SetDefaultMetrics(nil)
		sim.SetInstruments(sim.NewInstruments(o.Registry))
		defer sim.SetInstruments(nil)
		fmt.Fprintf(os.Stderr, "crowdsim: observability on http://%s/metrics\n", o.HTTP.Addr())
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "crowdsim: heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "crowdsim: heap profile:", err)
			}
		}()
	}

	if *load {
		return runLoad(loadOptions{
			agents:    *loadAgents,
			ticks:     *loadTicks,
			tasks:     *loadTasks,
			queue:     *loadQueue,
			wire:      *loadWire,
			transport: *loadTransport,
			minMsgs:   *loadMinMsgs,
			seed:      *seed,
		}, out)
	}

	base := workload.DefaultScenario()
	if *value > 0 {
		base.Value = *value
	}
	opt := experiments.Options{Seeds: *seeds, BaseSeed: *seed, Scenario: base}
	if *budgetFlag != 0 {
		if err := budget.ValidateBudget(*budgetFlag); err != nil {
			return err
		}
		eng, err := budget.EngineByName(*budgetEngine)
		if err != nil {
			return err
		}
		opt.Online = &budget.Mechanism{Budget: *budgetFlag, Engine: eng}
	}
	if *quick {
		opt.Seeds = 3
	}

	if *figure == "budget" {
		res, err := experiments.RunBudgetSweep(opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "welfare per unit budget across the workload zoo (%d seeds; B as a fraction of the unbudgeted payment):\n", opt.Seeds)
		fmt.Fprintf(out, "%-12s %-22s %8s %10s %10s %8s %8s\n",
			"scenario", "mechanism", "B", "welfare", "paid", "ω/B", "served")
		for _, r := range res.Rows {
			b := "∞"
			if r.Budget > 0 {
				b = fmt.Sprintf("%.1f", r.Budget)
			}
			fmt.Fprintf(out, "%-12s %-22s %8s %10.1f %10.1f %8.3f %8.2f\n",
				r.Scenario, r.Mechanism, b, r.Welfare, r.Payment, r.WelfarePerUnit, r.ServiceRate)
		}
		fmt.Fprintln(out)
		return render(res.Figure, *format, out)
	}

	if *figure == "quality" {
		fig, err := experiments.RunQualitySweep(opt)
		if err != nil {
			return err
		}
		return render(fig, *format, out)
	}

	if *figure == "anytime" {
		scn := opt.Scenario
		scn.Slots = 25 // O(m) prefix optima; keep the per-slot solves light
		aOpt := opt
		aOpt.Scenario = scn
		fig, err := experiments.RunAnytime(aOpt)
		if err != nil {
			return err
		}
		return render(fig, *format, out)
	}

	if *figure == "reserve" {
		fig, err := experiments.RunReserveSweep(opt)
		if err != nil {
			return err
		}
		return render(fig, *format, out)
	}

	if *figure == "robustness" {
		rows, err := experiments.RunRobustness(opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "robustness of the paper's conclusions across workload variants (%d seeds):\n", opt.Seeds)
		fmt.Fprintf(out, "%-22s %14s %14s %7s %7s %7s %10s\n",
			"variant", "welfare on", "welfare off", "ratio", "σ on", "σ off", "σ equal?")
		for _, r := range rows {
			verdict := "yes"
			if r.SigmaTTest.Distinguishable(0.05) {
				verdict = fmt.Sprintf("no p=%.3f", r.SigmaTTest.P)
			}
			ok := "OK"
			if !r.CompetitiveOK || !r.DominanceOK || !r.IndividuallyRat {
				ok = "VIOLATED"
			}
			fmt.Fprintf(out, "%-22s %14.1f %14.1f %7.3f %7.3f %7.3f %10s  %s\n",
				r.Variant, r.OnlineWelfare.Mean, r.OfflineWelfare.Mean, r.WorstRatio,
				r.OnlineSigma.Mean, r.OfflineSigma.Mean, verdict, ok)
		}
		return nil
	}

	if *figure == "baselines" {
		res, err := experiments.RunBaselines(opt)
		if err != nil {
			return err
		}
		if err := render(res.Welfare, *format, out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return render(res.Overpayment, *format, out)
	}

	wanted := map[string]bool{}
	if *figure == "all" {
		for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
			wanted[id] = true
		}
	} else {
		wanted[*figure] = true
	}

	var results []*experiments.Result
	for _, sw := range experiments.Sweeps(base) {
		if !wanted[sw.Figures[0]] && !wanted[sw.Figures[1]] {
			continue
		}
		if *quick {
			thin := sw.Points[:0:0]
			for i := 0; i < len(sw.Points); i += 2 {
				thin = append(thin, sw.Points[i])
			}
			sw.Points = thin
		}
		fmt.Fprintf(out, "running sweep %q (%d points × %d seeds × 2 mechanisms)...\n",
			sw.Name, len(sw.Points), opt.Seeds)
		res, err := experiments.RunSweep(sw, opt)
		if err != nil {
			return err
		}
		results = append(results, res)

		for _, pick := range []struct {
			id  string
			fig *stats.Figure
		}{
			{sw.Figures[0], res.Welfare},
			{sw.Figures[1], res.Overpayment},
		} {
			if !wanted[pick.id] {
				continue
			}
			fmt.Fprintln(out)
			if err := render(pick.fig, *format, out); err != nil {
				return err
			}
		}
	}
	if len(results) == 0 {
		return fmt.Errorf("unknown figure %q (want fig6..fig11 or all)", *figure)
	}

	if *check {
		fmt.Fprintln(out, "\nshape checks against the paper's findings:")
		bad := 0
		for _, rep := range experiments.CheckShapes(results) {
			for _, c := range rep.Checks {
				fmt.Fprintf(out, "  %-6s PASS  %s\n", rep.Figure, c)
			}
			for _, v := range rep.Violations {
				fmt.Fprintf(out, "  %-6s FAIL  %s\n", rep.Figure, v)
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d shape check(s) failed", bad)
		}
	}
	return nil
}

func render(fig *stats.Figure, format string, out io.Writer) error {
	switch format {
	case "table":
		return fig.WriteTable(out)
	case "chart":
		return fig.WriteChart(out, 60, 14)
	case "csv":
		return fig.WriteCSV(out)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
