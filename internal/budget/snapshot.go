package budget

import (
	"encoding/json"
	"fmt"

	"dynacrowd/internal/core"
)

// snapshotVersion matches the engine-portable v1 format of
// core.OnlineAuction snapshots; the budget section is an additive
// extension (unknown-field-tolerant decoders ignore it).
const snapshotVersion = 1

// budgetSection carries the budgeted engine's configuration. The
// dynamic state (stage, samples, thresholds, reserves, caps) is not
// stored: restore rebuilds it by replaying the round through the same
// deterministic engine, and the stored assignment doubles as an
// integrity check — exactly the core snapshot contract.
type budgetSection struct {
	Budget   float64 `json:"budget"`
	Engine   string  `json:"engine"`
	Coverage float64 `json:"coverage,omitempty"` // frugal only
}

// auctionSnapshot mirrors core's v1 auctionSnapshot field for field
// (the platform's checkpoint files stay engine-portable) plus the
// budget section.
type auctionSnapshot struct {
	Version        int            `json:"version"`
	Slots          core.Slot      `json:"slots"`
	Value          float64        `json:"value"`
	AllocateAtLoss bool           `json:"allocateAtLoss,omitempty"`
	Now            core.Slot      `json:"now"`
	Bids           []core.Bid     `json:"bids"`
	TaskArrivals   []core.Slot    `json:"taskArrivals"`
	ByTask         []core.PhoneID `json:"byTask"`
	WonAt          []core.Slot    `json:"wonAt"`
	Budget         *budgetSection `json:"budget,omitempty"`
}

// Snapshot serializes the auction's full state so a platform can
// checkpoint mid-round (mid-stage) and resume after a crash. The
// snapshot is self-contained JSON; restore with Restore.
func (a *Auction) Snapshot() ([]byte, error) {
	sec := &budgetSection{Budget: a.budget, Engine: a.eng.Name()}
	if f, ok := a.eng.(Frugal); ok {
		sec.Coverage = f.coverage()
	}
	snap := auctionSnapshot{
		Version:        snapshotVersion,
		Slots:          a.ledger.Slots(),
		Value:          a.ledger.Value(),
		AllocateAtLoss: a.ledger.AllocateAtLoss(),
		Now:            a.now,
		Bids:           a.ledger.Bids(),
		TaskArrivals:   a.ledger.TaskArrivals(),
		ByTask:         a.ledger.ByTask(),
		WonAt:          a.ledger.WonAtSlots(),
		Budget:         sec,
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("budget snapshot: %w", err)
	}
	return data, nil
}

// Restore reconstructs a budgeted auction from a Snapshot by replaying
// the recorded bids and tasks slot by slot through a fresh auction with
// the stored engine configuration. The replay is deterministic (stage
// boundaries, samples, thresholds, and reserves are pure functions of
// the input stream), so the restored auction continues the round —
// including the current stage's threshold state — exactly as the
// original would have; the stored assignment is cross-checked against
// the replay.
func Restore(data []byte) (*Auction, error) {
	var snap auctionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("restore budget auction: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("restore budget auction: unsupported version %d (want %d)", snap.Version, snapshotVersion)
	}
	if snap.Budget == nil {
		return nil, fmt.Errorf("restore budget auction: snapshot has no budget section (unbudgeted engine?)")
	}
	eng, err := EngineByName(snap.Budget.Engine)
	if err != nil {
		return nil, fmt.Errorf("restore budget auction: %w", err)
	}
	if f, ok := eng.(Frugal); ok && snap.Budget.Coverage > 0 {
		f.Coverage = snap.Budget.Coverage
		eng = f
	}
	a, err := New(snap.Slots, snap.Value, snap.AllocateAtLoss, snap.Budget.Budget, eng)
	if err != nil {
		return nil, fmt.Errorf("restore budget auction: %w", err)
	}
	if snap.Now < 0 || snap.Now > snap.Slots {
		return nil, fmt.Errorf("restore budget auction: clock %d outside round [0,%d]", snap.Now, snap.Slots)
	}
	if len(snap.WonAt) != len(snap.Bids) || len(snap.ByTask) != len(snap.TaskArrivals) {
		return nil, fmt.Errorf("restore budget auction: inconsistent state sizes")
	}
	for i, b := range snap.Bids {
		if b.Phone != core.PhoneID(i) {
			return nil, fmt.Errorf("restore budget auction: bid %d has phone id %d", i, b.Phone)
		}
		if err := b.Validate(snap.Slots); err != nil {
			return nil, fmt.Errorf("restore budget auction: %w", err)
		}
		if b.Arrival > snap.Now {
			return nil, fmt.Errorf("restore budget auction: bid %d arrives at %d, after clock %d", i, b.Arrival, snap.Now)
		}
	}
	var prev core.Slot
	for k, arrival := range snap.TaskArrivals {
		if arrival < 1 || arrival > snap.Now {
			return nil, fmt.Errorf("restore budget auction: task %d arrival %d outside [1,%d]", k, arrival, snap.Now)
		}
		if arrival < prev {
			return nil, fmt.Errorf("restore budget auction: task %d out of arrival order", k)
		}
		prev = arrival
	}

	// Replay: identical input stream => identical stage state, gates,
	// reserves, and caps. Settlement is skipped (payments are recomputed
	// deterministically by Outcome/Step once live again), so the
	// settlement state is rebuilt after it.
	a.replay = true
	bi, ti := 0, 0
	var arriving []core.StreamBid
	for t := core.Slot(1); t <= snap.Now; t++ {
		arriving = arriving[:0]
		for ; bi < len(snap.Bids) && snap.Bids[bi].Arrival == t; bi++ {
			arriving = append(arriving, core.StreamBid{Departure: snap.Bids[bi].Departure, Cost: snap.Bids[bi].Cost})
		}
		tasks := 0
		for ; ti < len(snap.TaskArrivals) && snap.TaskArrivals[ti] == t; ti++ {
			tasks++
		}
		if _, err := a.Step(arriving, tasks); err != nil {
			return nil, fmt.Errorf("restore budget auction: replay slot %d: %w", t, err)
		}
	}
	a.replay = false
	if bi != len(snap.Bids) {
		return nil, fmt.Errorf("restore budget auction: bids not in arrival order (replayed %d of %d)", bi, len(snap.Bids))
	}
	for i, b := range snap.Bids {
		a.trackPricing(core.PhoneID(i), b.Departure)
	}

	// The replayed assignment must agree with the stored one; a mismatch
	// means the snapshot was tampered with or produced by different code.
	byTask := a.ledger.ByTask()
	for k, p := range snap.ByTask {
		if byTask[k] != p {
			return nil, fmt.Errorf("restore budget auction: task %d assignment %d disagrees with replay %d", k, p, byTask[k])
		}
	}
	wonAt := a.ledger.WonAtSlots()
	for i, w := range snap.WonAt {
		if wonAt[i] != w {
			return nil, fmt.Errorf("restore budget auction: phone %d winning slot %d disagrees with replay %d", i, w, wonAt[i])
		}
	}
	return a, nil
}
