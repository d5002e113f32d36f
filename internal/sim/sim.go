// Package sim runs auction rounds end to end: it draws workloads from a
// scenario, executes one or more mechanisms on identical instances, and
// aggregates the paper's metrics (social welfare, overpayment ratio,
// service rate) across many seeded replications, fanning the replications
// out over a worker pool.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dynacrowd/internal/core"
	"dynacrowd/internal/workload"
)

// RoundMetrics captures one mechanism's result on one generated round.
type RoundMetrics struct {
	Seed      uint64
	Mechanism string

	Phones int // n
	Tasks  int // γ
	Served int // tasks allocated

	Welfare          float64 // ω (Definition 3)
	TotalPayment     float64
	TotalWinnerCost  float64
	OverpaymentRatio float64 // σ (Definition 11)

	Elapsed time.Duration
}

// RunRound generates the (scenario, seed) round and executes the
// mechanism on it.
func RunRound(scn workload.Scenario, seed uint64, mech core.Mechanism) (RoundMetrics, error) {
	in, err := scn.Generate(seed)
	if err != nil {
		return RoundMetrics{}, fmt.Errorf("sim: %w", err)
	}
	return RunInstance(in, seed, mech)
}

// RunInstance executes the mechanism on a prepared instance.
func RunInstance(in *core.Instance, seed uint64, mech core.Mechanism) (RoundMetrics, error) {
	start := time.Now()
	out, err := mech.Run(in)
	if err != nil {
		return RoundMetrics{}, fmt.Errorf("sim: %s: %w", mech.Name(), err)
	}
	elapsed := time.Since(start)
	noteRound(elapsed)
	return Metrics(in, seed, mech.Name(), out, elapsed), nil
}

// Metrics derives RoundMetrics from an already-computed outcome.
func Metrics(in *core.Instance, seed uint64, mechName string, out *core.Outcome, elapsed time.Duration) RoundMetrics {
	return RoundMetrics{
		Seed:             seed,
		Mechanism:        mechName,
		Phones:           in.NumPhones(),
		Tasks:            in.NumTasks(),
		Served:           out.Allocation.NumServed(),
		Welfare:          out.Welfare,
		TotalPayment:     out.TotalPayment(),
		TotalWinnerCost:  out.TotalWinnerCost(in),
		OverpaymentRatio: out.OverpaymentRatio(in),
		Elapsed:          elapsed,
	}
}

// Replication is the comparison result of all mechanisms on one seed.
type Replication struct {
	Seed    uint64
	Results []RoundMetrics // parallel to the mechanisms passed to Compare
}

// Compare runs every mechanism on the identical generated instance for
// each seed, replicating across a worker pool. Results are returned in
// seed order. workers ≤ 0 selects GOMAXPROCS.
//
// Mechanism values must be safe for concurrent use by multiple
// goroutines or stateless; all mechanisms in this module qualify.
func Compare(scn workload.Scenario, seeds []uint64, mechs []core.Mechanism, workers int) ([]Replication, error) {
	if len(mechs) == 0 {
		return nil, fmt.Errorf("sim: no mechanisms given")
	}
	if err := scn.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}

	reps := make([]Replication, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	next := make(chan int)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				seed := seeds[idx]
				in, err := scn.Generate(seed)
				if err != nil {
					errs[idx] = err
					continue
				}
				rep := Replication{Seed: seed}
				for _, mech := range mechs {
					m, err := RunInstance(in, seed, mech)
					if err != nil {
						errs[idx] = err
						break
					}
					rep.Results = append(rep.Results, m)
				}
				if len(rep.Results) == len(mechs) {
					noteReplication()
				}
				reps[idx] = rep
			}
		}()
	}
	for idx := range seeds {
		next <- idx
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return reps, nil
}

// Seeds returns n deterministic seeds derived from base, suitable for
// Compare. Distinct bases give disjoint-looking seed sets.
func Seeds(base uint64, n int) []uint64 {
	rng := workload.NewRNG(base)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// Column extracts one metric across replications for the mech-th
// mechanism, in seed order.
func Column(reps []Replication, mech int, f func(RoundMetrics) float64) []float64 {
	out := make([]float64, 0, len(reps))
	for _, r := range reps {
		out = append(out, f(r.Results[mech]))
	}
	return out
}

// Welfare and OverpaymentRatio are the two figure metrics as extractors
// for Column.
func Welfare(m RoundMetrics) float64          { return m.Welfare }
func OverpaymentRatio(m RoundMetrics) float64 { return m.OverpaymentRatio }

// ServiceRate is the fraction of tasks served.
func ServiceRate(m RoundMetrics) float64 {
	if m.Tasks == 0 {
		return 0
	}
	return float64(m.Served) / float64(m.Tasks)
}
