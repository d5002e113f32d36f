// Command crowd-market runs the auction round after round (the paper's
// §III-B deployment model) and reports long-run market behaviour:
// per-round welfare and overpayment, phone re-entry, and the stability
// statistic behind the paper's "stable even in the long run" claim.
//
// Usage:
//
//	crowd-market [flags]
//
//	-rounds n       number of consecutive rounds (default 20)
//	-mechanism m    online | offline (default online)
//	-return p       probability a losing phone retries next round (default 0.5)
//	-slots m        slots per round (default 50)
//	-seed n         randomness seed (default 1)
//	-verbose        print every round
//
// The summary calls the market stable when the overpayment ratio's
// drift between the run's first and second halves is at most 25% of
// its mean (market.MaxStableDrift), and UNSTABLE otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dynacrowd/internal/core"
	"dynacrowd/internal/market"
	"dynacrowd/internal/workload"
)

func main() {
	rounds := flag.Int("rounds", 20, "number of consecutive rounds")
	mechName := flag.String("mechanism", "online", "online | offline")
	returnProb := flag.Float64("return", 0.5, "probability a loser retries next round")
	slots := flag.Int("slots", 50, "slots per round")
	seed := flag.Uint64("seed", 1, "randomness seed")
	verbose := flag.Bool("verbose", false, "print every round")
	flag.Parse()

	if err := run(*rounds, *mechName, *returnProb, *slots, *seed, *verbose, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crowd-market:", err)
		os.Exit(1)
	}
}

func run(rounds int, mechName string, returnProb float64, slots int, seed uint64, verbose bool, out io.Writer) error {
	var mech core.Mechanism
	switch mechName {
	case "online":
		mech = &core.OnlineMechanism{}
	case "offline":
		mech = &core.OfflineMechanism{}
	default:
		return fmt.Errorf("unknown mechanism %q", mechName)
	}

	scn := workload.DefaultScenario()
	scn.Slots = core.Slot(slots)
	res, err := market.Run(market.Config{
		Rounds:            rounds,
		Scenario:          scn,
		Mechanism:         mech,
		Seed:              seed,
		ReturnProbability: returnProb,
	})
	if err != nil {
		return err
	}

	if verbose {
		fmt.Fprintf(out, "%5s %9s %7s %9s %11s %8s\n", "round", "phones", "return", "served", "welfare", "σ")
		for _, rec := range res.Rounds {
			m := rec.Metrics
			fmt.Fprintf(out, "%5d %9d %7d %6d/%-3d %11.1f %8.3f\n",
				rec.Round, m.Phones, rec.Returning, m.Served, m.Tasks, m.Welfare, m.OverpaymentRatio)
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintf(out, "market: %d rounds of %d slots, %s mechanism, return prob %.2f\n",
		rounds, slots, mech.Name(), returnProb)
	fmt.Fprintf(out, "mean welfare/round:    %.1f\n", res.MeanWelfare())
	fmt.Fprintf(out, "mean overpayment σ:    %.3f\n", res.MeanOverpayment())
	verdict := "stable, matching the paper's long-run claim"
	if !res.Stable() {
		verdict = "UNSTABLE"
	}
	fmt.Fprintf(out, "σ drift (1st vs 2nd half): %.4f (%.1f%% of mean) — %s\n",
		res.OverpaymentDrift(), 100*res.RelativeDrift(), verdict)
	return nil
}
