// Command crowdsim regenerates the paper's evaluation (Section VI) as a
// Markdown report on stdout: Figs. 6-11, each swept over round length,
// smartphone arrival rate or average cost with the online and offline
// mechanisms on identical workloads, then the shape checks against the
// paper's findings, then the extension experiments (baselines,
// robustness, reserve, anytime, quality). It is the single command
// behind EXPERIMENTS.md; testdata/report.golden pins its default output.
//
// Usage:
//
//	crowdsim [flags] > report.md
//
//	-figure id     section to print: fig6..fig11 (one paper figure and
//	               its shape checks), "baselines" (second-price /
//	               first-price / random / greedy-by-cost / posted-price
//	               against the paper's mechanisms), "robustness",
//	               "reserve", "anytime", "quality", "budget" (the
//	               welfare-per-budget comparison of the budgeted engines
//	               across the workload zoo, see docs/BUDGET.md; not part
//	               of the full report), or "all" (default: the full
//	               report)
//	-seeds n       replications per sweep point (default 20)
//	-seed base     base seed for the replication set (default 1)
//	-format f      how figures are drawn: table | chart | csv (default
//	               table; the anytime ratio is a chart in table format)
//	-check         exit non-zero if a shape check fails
//	-value v       per-task value ν override (default scenario's 30)
//	-budget B      hard round budget: substitute the budgeted online
//	               mechanism (stage-sampling thresholds, counterfactual
//	               critical-value payments, Σ payments ≤ B) for the
//	               paper's online mechanism in every sweep (default 0 =
//	               unbudgeted)
//	-budget-engine e  budget threshold engine: stage (default) | frugal
//	-quick         3 seeds and every other paper sweep point, for smoke
//	               runs
//	-cpuprofile f  write a CPU profile of the run to f (go tool pprof)
//	-memprofile f  write an end-of-run heap profile to f
//
// The full report at the default 20 seeds takes 0.28-0.32 s as a built
// binary on a 2-vCPU Xeon, 0.44 s with GOMAXPROCS=1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/experiments"
	"dynacrowd/internal/stats"
	"dynacrowd/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crowdsim:", err)
		os.Exit(1)
	}
}

// paperFigures are the -figure ids of the paper's own figures.
var paperFigures = []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}

// A section is one part of the report: the -figure ids that select it,
// its heading, and how it runs its experiment and renders the result.
type section struct {
	ids       []string
	title     string
	onRequest bool // left out of the full report
	write     func(*report, io.Writer) error
}

var sections = []section{
	{paperFigures, "Paper figures (Figs. 6-11)", false, (*report).paper},
	{[]string{"baselines"}, "Extension: all mechanisms compared", false, (*report).baselines},
	{[]string{"robustness"}, "Extension: robustness across workload variants", false, (*report).robustness},
	{[]string{"reserve"}, "Extension: reserve-price profit curve", false, (*report).reserve},
	{[]string{"anytime"}, "Extension: anytime competitive ratio", false, (*report).anytime},
	{[]string{"quality"}, "Extension: auction supply vs data quality", false, (*report).quality},
	{[]string{"budget"}, "Extension: welfare per unit budget", true, (*report).budget},
}

// renderers draw a figure in each -format.
var renderers = map[string]func(*stats.Figure, io.Writer) error{
	"table": (*stats.Figure).WriteTable,
	"chart": func(f *stats.Figure, w io.Writer) error { return f.WriteChart(w, 60, 12) },
	"csv":   (*stats.Figure).WriteCSV,
}

// report is what every section runs and renders with.
type report struct {
	opt     experiments.Options
	format  string
	figures []string // the paper figures to print
	quick   bool     // run every other point of the paper sweeps
	failed  int      // shape checks failed so far
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crowdsim", flag.ContinueOnError)
	figure := fs.String("figure", "all", "section to print: fig6..fig11, baselines, robustness, reserve, anytime, quality, budget, or all")
	seeds := fs.Int("seeds", 20, "replications per sweep point")
	seed := fs.Uint64("seed", 1, "base seed")
	format := fs.String("format", "table", "how figures are drawn: table | chart | csv")
	check := fs.Bool("check", false, "exit non-zero if a shape check fails")
	value := fs.Float64("value", 0, "per-task value ν override (0 = scenario default)")
	budgetFlag := fs.Float64("budget", 0, "hard round budget B for the online mechanism (0 = unbudgeted)")
	budgetEngine := fs.String("budget-engine", "stage", "budget threshold engine: stage | frugal")
	quick := fs.Bool("quick", false, "3 seeds and thinned paper sweeps")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	r := &report{format: *format, figures: paperFigures, quick: *quick}
	if slices.Contains(paperFigures, *figure) {
		r.figures = []string{*figure}
	}
	var todo []section
	for _, s := range sections {
		if (*figure == "all" && !s.onRequest) || slices.Contains(s.ids, *figure) {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown figure %q (want fig6..fig11, baselines, robustness, reserve, anytime, quality, budget or all)", *figure)
	}
	if renderers[*format] == nil {
		return fmt.Errorf("unknown format %q (want table, chart or csv)", *format)
	}

	scenario := workload.DefaultScenario()
	about := "paper Table I defaults"
	if *value > 0 {
		scenario.Value = *value
		about += fmt.Sprintf(", ν = %g", *value)
	}
	r.opt = experiments.Options{Seeds: *seeds, BaseSeed: *seed, Scenario: scenario}
	if *budgetFlag != 0 {
		if err := budget.ValidateBudget(*budgetFlag); err != nil {
			return err
		}
		eng, err := budget.EngineByName(*budgetEngine)
		if err != nil {
			return err
		}
		r.opt.Online = &budget.Mechanism{Budget: *budgetFlag, Engine: eng}
		about += fmt.Sprintf(", online mechanism under budget B = %g (%s engine)", *budgetFlag, *budgetEngine)
	}
	if *quick {
		r.opt.Seeds = 3
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

	fmt.Fprintf(out, "# dynacrowd reproduction report\n\n")
	fmt.Fprintf(out, "%d seeds per point, base seed %d, scenario: %s.\n\n", r.opt.Seeds, *seed, about)
	for _, s := range todo {
		fmt.Fprintf(out, "## %s\n\n", s.title)
		if err := s.write(r, out); err != nil {
			return err
		}
	}
	if *check && r.failed > 0 {
		return fmt.Errorf("%d shape check(s) failed", r.failed)
	}
	return nil
}

// paper runs the sweeps behind r.figures, renders each figure, then
// checks the figures' shapes against the paper's findings.
func (r *report) paper(w io.Writer) error {
	var results []*experiments.Result
	for _, sw := range experiments.Sweeps(r.opt.Scenario) {
		if !slices.Contains(r.figures, sw.Figures[0]) && !slices.Contains(r.figures, sw.Figures[1]) {
			continue
		}
		if r.quick {
			thin := sw.Points[:0:0]
			for i := 0; i < len(sw.Points); i += 2 {
				thin = append(thin, sw.Points[i])
			}
			sw.Points = thin
		}
		res, err := experiments.RunSweep(sw, r.opt)
		if err != nil {
			return err
		}
		results = append(results, res)
		for i, fig := range []*stats.Figure{res.Welfare, res.Overpayment} {
			if !slices.Contains(r.figures, sw.Figures[i]) {
				continue
			}
			if err := block(w, r.format, fig); err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(w, "### Shape checks vs the paper's findings\n\n")
	for _, rep := range experiments.CheckShapes(results) {
		if !slices.Contains(r.figures, rep.Figure) {
			continue
		}
		for _, c := range rep.Checks {
			fmt.Fprintf(w, "- %s: PASS — %s\n", rep.Figure, c)
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(w, "- %s: **FAIL** — %s\n", rep.Figure, v)
			r.failed++
		}
	}
	fmt.Fprintln(w)
	return nil
}

func (r *report) baselines(w io.Writer) error {
	res, err := experiments.RunBaselines(r.opt)
	if err != nil {
		return err
	}
	return block(w, r.format, res.Welfare, res.Overpayment)
}

func (r *report) robustness(w io.Writer) error {
	rows, err := experiments.RunRobustness(r.opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| variant | welfare on | welfare off | worst ratio | σ on | σ off | σ distinguishable? | claims |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	for _, row := range rows {
		dist := "no"
		if row.SigmaTTest.Distinguishable(0.05) {
			dist = fmt.Sprintf("yes (p=%.3f)", row.SigmaTTest.P)
		}
		claims := "OK"
		if !row.CompetitiveOK || !row.DominanceOK || !row.IndividuallyRat {
			claims = "VIOLATED"
		}
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %.3f | %.3f | %.3f | %s | %s |\n",
			row.Variant, row.OnlineWelfare.Mean, row.OfflineWelfare.Mean, row.WorstRatio,
			row.OnlineSigma.Mean, row.OfflineSigma.Mean, dist, claims)
	}
	fmt.Fprintln(w)
	return nil
}

func (r *report) reserve(w io.Writer) error {
	fig, err := experiments.RunReserveSweep(r.opt)
	if err != nil {
		return err
	}
	return block(w, r.format, fig)
}

func (r *report) anytime(w io.Writer) error {
	opt := r.opt
	opt.Scenario.Slots = 25 // O(m) prefix optima; keep the per-slot solves light
	fig, err := experiments.RunAnytime(opt)
	if err != nil {
		return err
	}
	// A ratio for each of 25 slots is read as a curve, so the table
	// format draws a chart.
	format := r.format
	if format == "table" {
		format = "chart"
	}
	return block(w, format, fig)
}

func (r *report) quality(w io.Writer) error {
	fig, err := experiments.RunQualitySweep(r.opt)
	if err != nil {
		return err
	}
	return block(w, r.format, fig)
}

func (r *report) budget(w io.Writer) error {
	res, err := experiments.RunBudgetSweep(r.opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Both budget engines at budgets B set as fractions of the unbudgeted greedy's mean payment, across the workload zoo (B = ∞: the unbudgeted greedy).\n\n")
	fmt.Fprintf(w, "| scenario | mechanism | B | welfare | paid | ω/B | served |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
	for _, row := range res.Rows {
		b := "∞"
		if row.Budget > 0 {
			b = fmt.Sprintf("%.1f", row.Budget)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %.1f | %.1f | %.3f | %.2f |\n",
			row.Scenario, row.Mechanism, b, row.Welfare, row.Payment, row.WelfarePerUnit, row.ServiceRate)
	}
	fmt.Fprintln(w)
	return block(w, r.format, res.Figure)
}

// block renders figs in one code block, a blank line between them.
func block(w io.Writer, format string, figs ...*stats.Figure) error {
	fmt.Fprintf(w, "```\n")
	for i, fig := range figs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := renderers[format](fig, w); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "```\n\n")
	return nil
}
