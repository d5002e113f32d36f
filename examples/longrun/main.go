// Longrun: the market over many rounds. The paper's auction runs "round
// by round" (§III-B) and its evaluation remarks that the overpayment
// ratio's stability means "the mobile crowdsourcing system is stable
// even in the long run". This example runs 25 consecutive rounds with
// losing phones re-entering later rounds, prints the per-round economy,
// and evaluates that stability claim directly.
//
//	go run ./examples/longrun
package main

import (
	"fmt"
	"log"

	"dynacrowd/internal/core"
	"dynacrowd/internal/market"
	"dynacrowd/internal/workload"
)

func main() {
	scn := workload.DefaultScenario()
	scn.Slots = 30 // a brisker round keeps the demo quick

	for _, mech := range []core.Mechanism{&core.OnlineMechanism{}, &core.OfflineMechanism{}} {
		res, err := market.Run(market.Config{
			Rounds:            25,
			Scenario:          scn,
			Mechanism:         mech,
			Seed:              13,
			ReturnProbability: 0.6,
		})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("=== %s: 25 rounds of %d slots, 60%% of losers retry ===\n", mech.Name(), scn.Slots)
		fmt.Printf("%5s %8s %8s %10s %8s\n", "round", "phones", "return", "welfare", "σ")
		for _, rec := range res.Rounds {
			if rec.Round%5 != 0 && rec.Round != 1 {
				continue // print a sample; the trend is what matters
			}
			m := rec.Metrics
			fmt.Printf("%5d %8d %8d %10.1f %8.3f\n",
				rec.Round, m.Phones, rec.Returning, m.Welfare, m.OverpaymentRatio)
		}
		fmt.Printf("mean σ %.3f, drift between halves %.4f (%.1f%% of mean)\n",
			res.MeanOverpayment(), res.OverpaymentDrift(), 100*res.RelativeDrift())
		if res.Stable() {
			fmt.Println("-> stable, matching the paper's long-run observation")
		} else {
			fmt.Println("-> drifting; the paper's claim does not hold at these settings")
		}
		fmt.Println()
	}
}
