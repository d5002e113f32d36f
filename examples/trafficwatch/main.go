// Trafficwatch: a road-delay estimation service (the VTrack use case
// from the paper's introduction) that runs the auction round after round
// over a simulated week, comparing the deployable online mechanism with
// the clairvoyant offline benchmark and with the untruthful per-slot
// second-price auction on identical workloads.
//
//	go run ./examples/trafficwatch
package main

import (
	"fmt"
	"log"
	"os"

	"dynacrowd"
	"dynacrowd/internal/baseline"
	"dynacrowd/internal/core"
	"dynacrowd/internal/sim"
	"dynacrowd/internal/stats"
)

func main() {
	// Each day is one auction round; weekday rush hours submit more
	// probe-vehicle queries than weekends.
	days := []struct {
		name     string
		taskRate float64
	}{
		{"Mon", 4}, {"Tue", 4}, {"Wed", 4}, {"Thu", 4}, {"Fri", 5},
		{"Sat", 1.5}, {"Sun", 1},
	}

	mechs := []core.Mechanism{
		&core.OnlineMechanism{},
		&core.OfflineMechanism{},
		&baseline.SecondPricePerSlot{},
	}

	fig := &stats.Figure{
		Title:  "Traffic-probe welfare by day (10 simulated weeks)",
		XLabel: "day", YLabel: "welfare",
	}
	sOnline := fig.AddSeries("online")
	sOffline := fig.AddSeries("offline")
	sSecond := fig.AddSeries("second-price")

	fmt.Println("== trafficwatch: one auction round per day, 10 weeks ==")
	for di, day := range days {
		scn := dynacrowd.DefaultScenario()
		scn.Slots = 36 // 5-minute windows over three rush hours
		scn.TaskRate = day.taskRate
		reps, err := sim.Compare(scn, sim.Seeds(uint64(di+1), 10), mechs, 0)
		if err != nil {
			log.Fatal(err)
		}
		sOnline.Add(float64(di+1), sim.Column(reps, 0, sim.Welfare))
		sOffline.Add(float64(di+1), sim.Column(reps, 1, sim.Welfare))
		sSecond.Add(float64(di+1), sim.Column(reps, 2, sim.Welfare))

		on := stats.Summarize(sim.Column(reps, 0, sim.Welfare))
		off := stats.Summarize(sim.Column(reps, 1, sim.Welfare))
		servedPct := 100 * stats.Summarize(sim.Column(reps, 0, sim.ServiceRate)).Mean
		fmt.Printf("%s: %5.1f probe queries/hr -> online welfare %8.1f (%.0f%% served), offline %8.1f, ratio %.2f\n",
			day.name, day.taskRate*12, on.Mean, servedPct, off.Mean, on.Mean/off.Mean)
	}

	fmt.Println()
	if err := fig.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The second-price baseline allocates identically to the online
	// mechanism (same greedy rule), so its welfare matches — but the
	// examples/truthfulness program shows why it still cannot be
	// deployed: drivers can game it by misreporting availability.
	fmt.Println("\nnote: second-price welfare equals online welfare by construction;")
	fmt.Println("run examples/truthfulness to see why its payments are still broken.")
}
