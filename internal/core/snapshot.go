package core

import (
	"encoding/json"
	"errors"
	"fmt"
)

// checkpointVersion guards the checkpoint format.
const checkpointVersion = 1

// ErrCheckpointKind rejects restoring one auction kind's checkpoint as
// another kind: a budgeted checkpoint as an OnlineAuction, or an
// unbudgeted one as a budgeted auction. Matchable via errors.Is.
var ErrCheckpointKind = errors.New("checkpoint belongs to another auction kind")

// Checkpoint is the serialized state of a core.Auction, the one
// checkpoint format both auctions write. It stores only the round's
// input and the decisions taken: the header, the bids and task arrivals
// seen so far, and each task's winner and each phone's winning slot.
// Everything else — the allocation pool, the pricing state, a budgeted
// engine's stage samples and thresholds — is rebuilt by Replay, which
// steps a fresh auction through the recorded input. Allocation is
// deterministic (phones pop by cost, then ID), so the replay reproduces
// every past decision, and the recorded ByTask and WonAt double as an
// integrity check. Payments are recomputed, not stored.
type Checkpoint struct {
	Version        int       `json:"version"`
	Slots          Slot      `json:"slots"`
	Value          float64   `json:"value"`
	AllocateAtLoss bool      `json:"allocateAtLoss,omitempty"`
	Now            Slot      `json:"now"`
	Bids           []Bid     `json:"bids"`
	TaskArrivals   []Slot    `json:"taskArrivals"`
	ByTask         []PhoneID `json:"byTask"`
	WonAt          []Slot    `json:"wonAt"`
	// Completions carries an OnlineAuction's assignment lifecycle when
	// tracking is on. Its default log is replayed at the clock each
	// default happened; statuses, issued payments and counters are
	// restored from it.
	Completions *CompletionSnapshot `json:"completions,omitempty"`
	// Budget is the budgeted auction's section (internal/budget). Core
	// treats it as opaque: its presence marks the budgeted kind.
	Budget json.RawMessage `json:"budget,omitempty"`
}

// newCheckpoint records the round state of an auction at clock now,
// deriving each winner's slot from its task. It aliases in's bids and
// byTask: encode it before the auction moves on.
func newCheckpoint(in *Instance, now Slot, byTask []PhoneID) *Checkpoint {
	c := &Checkpoint{
		Version:        checkpointVersion,
		Slots:          in.Slots,
		Value:          in.Value,
		AllocateAtLoss: in.AllocateAtLoss,
		Now:            now,
		Bids:           in.Bids,
		ByTask:         byTask,
		WonAt:          make([]Slot, len(in.Bids)),
	}
	fillWonAt(c.WonAt, in.Tasks, byTask)
	for _, t := range in.Tasks {
		c.TaskArrivals = append(c.TaskArrivals, t.Arrival)
	}
	return c
}

// Encode serializes the checkpoint as self-contained JSON.
func (c *Checkpoint) Encode() ([]byte, error) {
	data, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return data, nil
}

// DecodeCheckpoint parses a checkpoint written by Encode. It does not
// validate it: Replay does.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &c, nil
}

// validate checks that the checkpoint describes a state some live
// auction could have reached: a supported version, a clock inside the
// round, consistent state sizes, dense phone IDs, valid bids arriving
// in order by the clock, tasks arriving in order by the clock, every
// winner's slot equal to its task's slot, and a completions section
// sized to the bids whose default log is in clock order.
func (c *Checkpoint) validate() error {
	if c.Version != checkpointVersion {
		return fmt.Errorf("checkpoint: unsupported version %d (want %d)", c.Version, checkpointVersion)
	}
	if c.Now < 0 || c.Now > c.Slots {
		return fmt.Errorf("checkpoint: clock %d outside round [0,%d]", c.Now, c.Slots)
	}
	if len(c.WonAt) != len(c.Bids) || len(c.ByTask) != len(c.TaskArrivals) {
		return fmt.Errorf("checkpoint: %d bids with %d winning slots, %d tasks with %d winners",
			len(c.Bids), len(c.WonAt), len(c.TaskArrivals), len(c.ByTask))
	}
	var prev Slot
	for i, b := range c.Bids {
		if b.Phone != PhoneID(i) {
			return fmt.Errorf("checkpoint: bid %d has phone id %d", i, b.Phone)
		}
		if err := b.Validate(c.Slots); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if b.Arrival > c.Now {
			return fmt.Errorf("checkpoint: bid %d arrives at %d, after clock %d", i, b.Arrival, c.Now)
		}
		if b.Arrival < prev {
			return fmt.Errorf("checkpoint: bid %d arrives at %d, before bid %d (%d)", i, b.Arrival, i-1, prev)
		}
		prev = b.Arrival
	}
	prev = 0
	for k, arrival := range c.TaskArrivals {
		if arrival < 1 || arrival > c.Now {
			return fmt.Errorf("checkpoint: task %d arrival %d outside [1,%d]", k, arrival, c.Now)
		}
		if arrival < prev {
			return fmt.Errorf("checkpoint: task %d arrives at %d, before task %d (%d)", k, arrival, k-1, prev)
		}
		prev = arrival
		p := c.ByTask[k]
		if p == NoPhone {
			continue
		}
		if p < 0 || int(p) >= len(c.Bids) {
			return fmt.Errorf("checkpoint: task %d assigned to unknown phone %d", k, p)
		}
		if c.WonAt[p] != arrival {
			return fmt.Errorf("checkpoint: task %d slot %d disagrees with winner %d's slot %d", k, arrival, p, c.WonAt[p])
		}
	}
	if comp := c.Completions; comp != nil {
		if len(comp.Statuses) != len(c.Bids) {
			return fmt.Errorf("checkpoint: %d completion statuses for %d phones", len(comp.Statuses), len(c.Bids))
		}
		if len(comp.Paid) != 0 && len(comp.Paid) != len(c.Bids) || len(comp.PaidAt) != len(comp.Paid) {
			return fmt.Errorf("checkpoint: %d paid amounts and %d payment clocks for %d phones",
				len(comp.Paid), len(comp.PaidAt), len(c.Bids))
		}
		prev = 1
		for i, e := range comp.Log {
			if e.Slot < prev || e.Slot > c.Now {
				return fmt.Errorf("checkpoint: default log entry %d at clock %d out of clock order or outside [1,%d]", i, e.Slot, c.Now)
			}
			prev = e.Slot
		}
	}
	return nil
}

// Replay validates the checkpoint and rebuilds a — a fresh auction of
// the checkpoint's round — by stepping it through the recorded bids and
// task arrivals up to the checkpoint's clock (see StepThrough). after,
// when non-nil, runs after each slot's Step. Last, replayed must report
// a's state, and its allocation must equal the recorded ByTask and
// WonAt: a mismatch means the checkpoint was tampered with or written
// by different code.
func (c *Checkpoint) Replay(a Auction, after func(*SlotResult) error, replayed func() *Checkpoint) error {
	if err := c.validate(); err != nil {
		return err
	}
	in := &Instance{Slots: c.Slots, Value: c.Value, Bids: c.Bids, AllocateAtLoss: c.AllocateAtLoss}
	for k, t := range c.TaskArrivals {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(k), Arrival: t})
	}
	if err := StepThrough(a, in, c.Now, after); err != nil {
		return fmt.Errorf("checkpoint replay: %w", err)
	}
	got := replayed()
	for k, p := range c.ByTask {
		if got.ByTask[k] != p {
			return fmt.Errorf("checkpoint: task %d assignment %d disagrees with replay %d", k, p, got.ByTask[k])
		}
	}
	for i, w := range c.WonAt {
		if got.WonAt[i] != w {
			return fmt.Errorf("checkpoint: phone %d winning slot %d disagrees with replay %d", i, w, got.WonAt[i])
		}
	}
	return nil
}

// StepThrough steps a through in's bids and tasks from slot a.Now()+1
// to upTo (≥ 0): each bid joins in its arrival slot (one slot's bids in ID
// order) and each slot announces the tasks arriving in it. Bids and
// tasks arriving outside those slots are skipped. after, when non-nil,
// runs after each slot's Step with its result. A streamed bid's phone
// ID equals its instance ID when in's bids are in arrival order.
func StepThrough(a Auction, in *Instance, upTo Slot, after func(*SlotResult) error) error {
	from := a.Now() + 1
	arriving := make([][]StreamBid, upTo+1)
	for _, b := range in.Bids {
		if from <= b.Arrival && b.Arrival <= upTo {
			arriving[b.Arrival] = append(arriving[b.Arrival], StreamBid{Departure: b.Departure, Cost: b.Cost})
		}
	}
	tasks := make([]int, upTo+1)
	for _, task := range in.Tasks {
		if from <= task.Arrival && task.Arrival <= upTo {
			tasks[task.Arrival]++
		}
	}
	for t := from; t <= upTo; t++ {
		res, err := a.Step(arriving[t], tasks[t])
		if err == nil && after != nil {
			err = after(res)
		}
		if err != nil {
			return fmt.Errorf("slot %d: %w", t, err)
		}
	}
	return nil
}

// checkpoint records the auction's state (see newCheckpoint).
func (oa *OnlineAuction) checkpoint() *Checkpoint {
	return newCheckpoint(oa.instance(), oa.now, oa.run.byTask)
}

// Snapshot serializes the auction's full state so a platform can
// checkpoint mid-round and resume after a crash. The snapshot is
// self-contained JSON; restore with RestoreOnlineAuction.
func (oa *OnlineAuction) Snapshot() ([]byte, error) {
	c := oa.checkpoint()
	c.Completions = oa.comp.marshal()
	return c.Encode()
}

// RestoreOnlineAuction reconstructs an auction from a Snapshot by
// replaying the round through Step (see Checkpoint.Replay), with each
// logged default applied at the clock it happened. The restored auction
// continues the round exactly as the original would have: identical
// future allocations and payments for identical future input. A
// checkpoint with a budget section is rejected with ErrCheckpointKind.
func RestoreOnlineAuction(data []byte) (*OnlineAuction, error) {
	c, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("restore auction: %w", err)
	}
	if c.Budget != nil {
		return nil, fmt.Errorf("restore auction: budget section: %w", ErrCheckpointKind)
	}
	oa, err := NewOnlineAuction(c.Slots, c.Value, c.AllocateAtLoss)
	if err != nil {
		return nil, fmt.Errorf("restore auction: %w", err)
	}
	var after func(*SlotResult) error
	if c.Completions != nil {
		// A default mutates the winner set and the pricing tables at a
		// specific clock, so each is applied right after its slot's Step.
		// Replay validates the log's clock order first.
		oa.TrackCompletions(true)
		log := c.Completions.Log
		after = func(res *SlotResult) error {
			for ; len(log) > 0 && log[0].Slot == res.Slot; log = log[1:] {
				if _, err := oa.Default(log[0].Phone); err != nil {
					return fmt.Errorf("logged default of phone %d: %w", log[0].Phone, err)
				}
			}
			return nil
		}
	}
	if err := c.Replay(oa, after, oa.checkpoint); err != nil {
		return nil, fmt.Errorf("restore auction: %w", err)
	}
	if c.Completions != nil {
		if err := oa.comp.restoreFrom(c.Completions); err != nil {
			return nil, fmt.Errorf("restore auction: %w", err)
		}
	}
	return oa, nil
}
