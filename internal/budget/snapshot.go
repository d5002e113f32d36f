package budget

import (
	"encoding/json"
	"fmt"

	"dynacrowd/internal/core"
)

// budgetSection is the budgeted auction's section of a core.Checkpoint:
// the engine configuration. The dynamic state (stage, samples,
// thresholds, reserves, caps) is not stored: restore rebuilds it by
// replaying the round through the same deterministic engine.
type budgetSection struct {
	Budget   float64 `json:"budget"`
	Engine   string  `json:"engine"`
	Coverage float64 `json:"coverage,omitempty"` // frugal only
}

// Snapshot serializes the auction's full state so a platform can
// checkpoint mid-round (mid-stage) and resume after a crash. The
// snapshot is a core.Checkpoint with a budget section; restore with
// Restore.
func (a *Auction) Snapshot() ([]byte, error) {
	sec := budgetSection{Budget: a.budget, Engine: a.eng.Name()}
	if f, ok := a.eng.(Frugal); ok {
		sec.Coverage = f.coverage()
	}
	c := a.ledger.Checkpoint()
	var err error
	if c.Budget, err = json.Marshal(sec); err != nil {
		return nil, fmt.Errorf("budget snapshot: %w", err)
	}
	return c.Encode()
}

// Restore reconstructs a budgeted auction from a Snapshot by replaying
// the recorded bids and tasks through a fresh auction with the stored
// engine configuration (see core.Checkpoint.Replay). The replay is
// deterministic (stage boundaries, samples, thresholds, and reserves
// are pure functions of the input stream), so the restored auction
// continues the round — including the current stage's threshold state —
// exactly as the original would have. A checkpoint without a budget
// section is rejected with core.ErrCheckpointKind.
func Restore(data []byte) (*Auction, error) {
	c, err := core.DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("restore budget auction: %w", err)
	}
	if c.Budget == nil {
		return nil, fmt.Errorf("restore budget auction: no budget section: %w", core.ErrCheckpointKind)
	}
	if c.Completions != nil {
		return nil, fmt.Errorf("restore budget auction: completions section (the budgeted auction has no lifecycle)")
	}
	var sec budgetSection
	if err := json.Unmarshal(c.Budget, &sec); err != nil {
		return nil, fmt.Errorf("restore budget auction: %w", err)
	}
	eng, err := EngineByName(sec.Engine)
	if err != nil {
		return nil, fmt.Errorf("restore budget auction: %w", err)
	}
	if f, ok := eng.(Frugal); ok && sec.Coverage > 0 {
		f.Coverage = sec.Coverage
		eng = f
	}
	a, err := New(c.Slots, c.Value, c.AllocateAtLoss, sec.Budget, eng)
	if err != nil {
		return nil, fmt.Errorf("restore budget auction: %w", err)
	}
	// Settlement is skipped during the replay. A winner that departed
	// before the checkpoint was paid at its departure, and that amount is
	// final (see criticalValue): price it once more here, which settles
	// it as the live round did.
	a.replay = true
	err = c.Replay(a, nil, a.ledger.Checkpoint)
	a.replay = false
	if err != nil {
		return nil, fmt.Errorf("restore budget auction: %w", err)
	}
	for i, b := range c.Bids {
		if p := core.PhoneID(i); b.Departure <= c.Now && a.ledger.WonAt(p) != 0 {
			a.criticalValue(p)
		}
	}
	return a, nil
}
