package experiments

import (
	"fmt"

	"dynacrowd/internal/core"
	"dynacrowd/internal/stats"
)

// RunAnytime traces the online mechanism's welfare slot by slot against
// the clairvoyant optimum of the same prefix (bids and tasks that have
// arrived so far) — the "anytime" view of Theorem 6: how far below the
// best-possible the deployed mechanism sits at every instant, not just
// at the end of the round. The offline prefix optimum is recomputed per
// slot, so the run is O(m) Hungarian solves; use moderate m.
func RunAnytime(opt Options) (*stats.Figure, error) {
	opt = opt.withDefaults()
	seeds := make([]uint64, opt.Seeds)
	for i := range seeds {
		seeds[i] = opt.BaseSeed + uint64(i)
	}

	fig := &stats.Figure{
		Title:  "Anytime competitive ratio: online welfare / prefix optimum per slot (extension)",
		XLabel: "slot", YLabel: "welfare ratio",
	}
	ratio := fig.AddSeries("online/optimal")
	guarantee := fig.AddSeries("guarantee")

	m := opt.Scenario.Slots
	perSlot := make([][]float64, m+1)

	for _, seed := range seeds {
		in, err := opt.Scenario.Generate(seed)
		if err != nil {
			return nil, fmt.Errorf("anytime: %w", err)
		}
		oa, err := core.NewOnlineAuction(in.Slots, in.Value, in.AllocateAtLoss)
		if err != nil {
			return nil, err
		}
		of := &core.OfflineMechanism{}
		err = core.StepThrough(oa, in, in.Slots, func(res *core.SlotResult) error {
			opt, err := of.Welfare(oa.Instance()) // bids and tasks seen so far
			if err != nil {
				return err
			}
			if opt > 0 {
				perSlot[res.Slot] = append(perSlot[res.Slot], oa.Outcome().Welfare/opt)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for t := core.Slot(1); t <= m; t++ {
		if len(perSlot[t]) == 0 {
			continue
		}
		ratio.Add(float64(t), perSlot[t])
		guarantee.Add(float64(t), []float64{0.5})
	}
	return fig, nil
}
