package core

import (
	"fmt"
)

// Auction is the stepping seam shared by the slot-by-slot auction
// engines: the online mechanism's OnlineAuction and the budgeted engine
// (internal/budget). The platform hosts either through this interface.
// Configuration (metrics, departure tracking) and the completion
// lifecycle (completion.go) live on the concrete types.
type Auction interface {
	// Step advances the auction one slot (see OnlineAuction.Step).
	Step(arriving []StreamBid, numTasks int) (*SlotResult, error)
	// Now returns the last processed slot (0 before the first Step).
	Now() Slot
	// Done reports whether all slots have been processed.
	Done() bool
	// Outcome assembles the round outcome so far.
	Outcome() *Outcome
	// Bid returns admitted phone p's bid; ok is false for any other ID.
	Bid(p PhoneID) (b Bid, ok bool)
	// Instance returns a copy of the accumulated bids and tasks.
	Instance() *Instance
	// Snapshot serializes the auction state for checkpoint/restore.
	Snapshot() ([]byte, error)
}

var _ Auction = (*OnlineAuction)(nil)

// Ledger is the round state of a greedy run assembled by an external
// allocator: the bids and tasks seen so far plus the recorded
// allocation (each task's winner and each phone's task and winning
// slot). The budgeted engine (internal/budget) records its own
// allocation decisions into a Ledger and prices its winners by
// counterfactual replay.
//
// A Ledger is not safe for concurrent use.
type Ledger struct {
	inst      Instance
	byTask    []PhoneID // task -> winner (NoPhone if unserved)
	phoneTask []TaskID  // phone -> its won task (NoTask if it lost)
	wonAt     []Slot    // phone -> winning slot (0 if it lost)
}

// NewLedger creates the ledger of an m-slot round with per-task value ν.
func NewLedger(m Slot, value float64, allocateAtLoss bool) (*Ledger, error) {
	if m < 1 {
		return nil, fmt.Errorf("ledger: round length %d < 1", m)
	}
	if value < 0 {
		return nil, fmt.Errorf("ledger: negative task value %g", value)
	}
	return &Ledger{inst: Instance{Slots: m, Value: value, AllocateAtLoss: allocateAtLoss}}, nil
}

// Slots returns the round length m.
func (l *Ledger) Slots() Slot { return l.inst.Slots }

// Value returns the per-task value ν.
func (l *Ledger) Value() float64 { return l.inst.Value }

// AllocateAtLoss reports whether bids with cost ≥ ν may win.
func (l *Ledger) AllocateAtLoss() bool { return l.inst.AllocateAtLoss }

// NumPhones returns the number of admitted bids.
func (l *Ledger) NumPhones() int { return len(l.inst.Bids) }

// NumTasks returns the number of announced tasks.
func (l *Ledger) NumTasks() int { return len(l.inst.Tasks) }

// Bid returns phone i's admitted bid.
func (l *Ledger) Bid(i PhoneID) Bid { return l.inst.Bids[i] }

// WonAt returns the slot phone i won in (0 if it has not won).
func (l *Ledger) WonAt(i PhoneID) Slot { return l.wonAt[i] }

// Bids returns a copy of the admitted bids in ID order.
func (l *Ledger) Bids() []Bid { return append([]Bid(nil), l.inst.Bids...) }

// TaskArrivals returns each task's arrival slot in ID order.
func (l *Ledger) TaskArrivals() []Slot {
	out := make([]Slot, len(l.inst.Tasks))
	for k, t := range l.inst.Tasks {
		out[k] = t.Arrival
	}
	return out
}

// ByTask returns a copy of the task -> winner table (NoPhone entries
// for unserved tasks).
func (l *Ledger) ByTask() []PhoneID { return append([]PhoneID(nil), l.byTask...) }

// WonAtSlots returns a copy of the phone -> winning-slot table (0
// entries for losers).
func (l *Ledger) WonAtSlots() []Slot { return append([]Slot(nil), l.wonAt...) }

// AddBid admits a bid arriving in slot `arrival` and returns its dense
// phone ID. The bid is validated (including the typed ErrWindowInverted
// rejection); an invalid bid is not admitted.
func (l *Ledger) AddBid(arrival Slot, sb StreamBid) (PhoneID, error) {
	id := PhoneID(len(l.inst.Bids))
	b := Bid{Phone: id, Arrival: arrival, Departure: sb.Departure, Cost: sb.Cost}
	if err := b.Validate(l.inst.Slots); err != nil {
		return NoPhone, err
	}
	l.inst.Bids = append(l.inst.Bids, b)
	l.phoneTask = append(l.phoneTask, NoTask)
	l.wonAt = append(l.wonAt, 0)
	return id, nil
}

// AddTask announces a task arriving in slot t and returns its dense
// task ID. Tasks must be added in non-decreasing arrival order. The
// task stays unserved unless RecordWin assigns it.
func (l *Ledger) AddTask(t Slot) TaskID {
	id := TaskID(len(l.inst.Tasks))
	l.inst.Tasks = append(l.inst.Tasks, Task{ID: id, Arrival: t})
	l.byTask = append(l.byTask, NoPhone)
	return id
}

// RecordWin records task k being assigned to `winner` in slot t.
func (l *Ledger) RecordWin(k TaskID, winner PhoneID, t Slot) {
	l.byTask[k] = winner
	l.phoneTask[winner] = k
	l.wonAt[winner] = t
}

// Assignable reports whether phone i holds no task yet, so an allocator
// may still draft it.
func (l *Ledger) Assignable(i PhoneID) bool { return l.phoneTask[i] == NoTask }

// Reset empties the ledger for a fresh round of the same shape, keeping
// its storage. Counterfactual replays (internal/budget) reset a scratch
// ledger instead of allocating one per replay.
func (l *Ledger) Reset() {
	l.inst.Bids = l.inst.Bids[:0]
	l.inst.Tasks = l.inst.Tasks[:0]
	l.byTask = l.byTask[:0]
	l.phoneTask = l.phoneTask[:0]
	l.wonAt = l.wonAt[:0]
}

// CopyFrom overwrites l with src's state, reusing l's storage. Both
// ledgers must describe rounds of the same length m.
func (l *Ledger) CopyFrom(src *Ledger) {
	l.inst.Value, l.inst.AllocateAtLoss = src.inst.Value, src.inst.AllocateAtLoss
	l.inst.Bids = append(l.inst.Bids[:0], src.inst.Bids...)
	l.inst.Tasks = append(l.inst.Tasks[:0], src.inst.Tasks...)
	l.byTask = append(l.byTask[:0], src.byTask...)
	l.phoneTask = append(l.phoneTask[:0], src.phoneTask...)
	l.wonAt = append(l.wonAt[:0], src.wonAt...)
}

// Instance returns a deep copy of the bids and tasks recorded so far.
func (l *Ledger) Instance() *Instance {
	in := l.inst
	return in.Clone()
}

// Outcome assembles the allocation recorded so far with every payment
// zero: the ledger's owner prices its winners its own way.
func (l *Ledger) Outcome() *Outcome {
	alloc := NewAllocation(l.NumTasks(), l.NumPhones())
	for k, ph := range l.byTask {
		if ph != NoPhone {
			alloc.Assign(TaskID(k), ph, l.inst.Tasks[k].Arrival)
		}
	}
	return &Outcome{
		Allocation: alloc,
		Payments:   make([]float64, l.NumPhones()),
		Welfare:    alloc.Welfare(&l.inst),
	}
}
