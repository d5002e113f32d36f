package core

import (
	"fmt"
	"math"
	"sort"
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
	// Standing returns phone p's task and winning slot (NoTask and 0 if
	// it holds none) and, once its payment has been issued, the amount
	// with settled true. It prices at most p itself, never the round.
	Standing(p PhoneID) (task TaskID, won Slot, paid float64, settled bool)
	// Instance returns a copy of the accumulated bids and tasks.
	Instance() *Instance
	// Snapshot serializes the auction state for checkpoint/restore.
	Snapshot() ([]byte, error)
}

var _ Auction = (*OnlineAuction)(nil)

// Ledger is the round state of the budgeted engine (internal/budget):
// the round's Instance (m, ν, the reserve rule, and the bids and tasks
// seen so far), its clock, the allocation recorded so far (each task's
// winner and each phone's task; a winner's slot is its task's arrival),
// and the allocation pool. Its Step opens each slot with Advance,
// announces each task with AddTask, draws the task's winner from the
// pool and records it with RecordWin, and prices winners by
// counterfactual replay over scratch Ledgers: it Rewinds one to the
// observed round's close of a slot, CopyFroms that into a probe, and
// steps the probe with Readmit.
//
// OnlineAuction keeps the same facts in its own fields, but each rule
// is written once and shared: the round and slot admission checks
// (checkRound, checkSlot), the reserve price (Instance.poolable), the
// pool (a costHeap drawn through popUsable and shed of departed entries
// by compact once each slot closes), the outcome's allocation
// (outcomeOf), the bounds-checked Bid (bidAt) and the checkpoint
// (newCheckpoint).
//
// The pool's entries hold departures and phone IDs as int32: NewLedger
// refuses a round longer than MaxInt32 slots, and Advance refuses more
// than MaxInt32 phones.
//
// A Ledger is not safe for concurrent use.
type Ledger struct {
	inst      Instance
	now       Slot      // last opened slot (0 before the first Advance)
	byTask    []PhoneID // task -> winner (NoPhone if unserved)
	phoneTask []TaskID  // phone -> its won task (NoTask if it lost)
	pool      costHeap  // admitted phones the reserve price lets win
}

// NewLedger creates the ledger of an m-slot round with per-task value ν.
func NewLedger(m Slot, value float64, allocateAtLoss bool) (*Ledger, error) {
	if err := checkRound(m, value); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &Ledger{inst: Instance{Slots: m, Value: value, AllocateAtLoss: allocateAtLoss}}, nil
}

// checkRound is both auctions' check of an m-slot round with per-task
// value ν. The pool stores departures as int32, so m must fit one.
func checkRound(m Slot, value float64) error {
	switch {
	case m < 1:
		return fmt.Errorf("round length %d < 1", m)
	case m > math.MaxInt32:
		return fmt.Errorf("round length %d exceeds %d", m, math.MaxInt32)
	case value < 0:
		return fmt.Errorf("negative task value %g", value)
	}
	return nil
}

// checkSlot is both auctions' admission check of the slot after now in
// an m-slot round that has admitted phones bids so far: the round must
// not be over, numTasks must be non-negative, the arrivals must keep the
// round within MaxInt32 phones (the pool stores phone IDs as int32), and
// every arriving bid must pass Bid.Validate (an inverted window fails
// with the typed ErrWindowInverted). A Step it refuses changes nothing.
func checkSlot(m, now Slot, phones int, arriving []StreamBid, numTasks int) error {
	if now >= m {
		return fmt.Errorf("round already complete (%d slots)", m)
	}
	if numTasks < 0 {
		return fmt.Errorf("negative task count %d", numTasks)
	}
	if n := phones + len(arriving); n > math.MaxInt32 {
		return fmt.Errorf("%d phones exceed %d", n, math.MaxInt32)
	}
	for k, sb := range arriving {
		b := Bid{Phone: PhoneID(phones + k), Arrival: now + 1, Departure: sb.Departure, Cost: sb.Cost}
		if err := b.Validate(m); err != nil {
			return err
		}
	}
	return nil
}

// bidAt returns admitted phone p's bid from bids; ok is false for any
// other ID.
func bidAt(bids []Bid, p PhoneID) (b Bid, ok bool) {
	if p < 0 || int(p) >= len(bids) {
		return Bid{}, false
	}
	return bids[p], true
}

// outcomeOf assembles the allocation byTask records over in, with every
// payment zero: the caller prices its winners its own way.
func outcomeOf(in *Instance, byTask []PhoneID) *Outcome {
	alloc := NewAllocation(len(in.Tasks), len(in.Bids))
	for k, ph := range byTask {
		if ph != NoPhone {
			alloc.Assign(TaskID(k), ph, in.Tasks[k].Arrival)
		}
	}
	return &Outcome{
		Allocation: alloc,
		Payments:   make([]float64, len(in.Bids)),
		Welfare:    alloc.Welfare(in),
	}
}

// Slots returns the round length m.
func (l *Ledger) Slots() Slot { return l.inst.Slots }

// Value returns the per-task value ν.
func (l *Ledger) Value() float64 { return l.inst.Value }

// AllocateAtLoss reports whether bids with cost ≥ ν may win.
func (l *Ledger) AllocateAtLoss() bool { return l.inst.AllocateAtLoss }

// Now returns the last opened slot (0 before the first Advance).
func (l *Ledger) Now() Slot { return l.now }

// Done reports whether all m slots have been opened.
func (l *Ledger) Done() bool { return l.now >= l.inst.Slots }

// NumPhones returns the number of admitted bids.
func (l *Ledger) NumPhones() int { return len(l.inst.Bids) }

// NumTasks returns the number of announced tasks.
func (l *Ledger) NumTasks() int { return len(l.inst.Tasks) }

// Bid returns admitted phone p's bid; ok is false for any other ID.
func (l *Ledger) Bid(p PhoneID) (b Bid, ok bool) { return bidAt(l.inst.Bids, p) }

// Bids returns the admitted bids, indexed by phone ID. The slice aliases
// the ledger's storage: read it only, and only until the next Advance.
func (l *Ledger) Bids() []Bid { return l.inst.Bids }

// WonAt returns the slot phone i won in (0 if it has not won).
func (l *Ledger) WonAt(i PhoneID) Slot { return wonAt(l.inst.Tasks, l.phoneTask[i]) }

// Task returns phone i's won task (NoTask if it lost).
func (l *Ledger) Task(i PhoneID) TaskID { return l.phoneTask[i] }

// Checkpoint records the ledger's round state for an auction's
// Snapshot. It aliases the ledger's storage: encode it before the ledger
// changes.
func (l *Ledger) Checkpoint() *Checkpoint {
	return newCheckpoint(&l.inst, l.now, l.byTask)
}

// Advance opens the slot after the clock, admits the bids arriving in
// it, and returns the slot. The bids take the next dense phone IDs, in
// order, and those Poolable enter the pool; the rest are recorded, since
// they still depart and auditors may inspect them, but can never win.
// numTasks is the number of tasks AddTask will announce in the slot.
//
// Advance refuses a slot checkSlot refuses, changing nothing. Otherwise
// it grows the per-phone and per-task storage once for the slot's
// appends, by doubling (see grown), as OnlineAuction.Step does.
func (l *Ledger) Advance(arriving []StreamBid, numTasks int) (Slot, error) {
	if err := checkSlot(l.inst.Slots, l.now, len(l.inst.Bids), arriving, numTasks); err != nil {
		return 0, err
	}
	return l.Readmit(arriving, numTasks), nil
}

// Readmit is Advance without checkSlot, for a counterfactual replay of
// a slot that a live round has already admitted: the caller guarantees
// that the slot is within the round, numTasks is non-negative, and every
// bid passed checkSlot there or differs from one that did only in a
// finite, non-negative cost.
//
// Slot l.now has closed, so Readmit first compacts the pool through it,
// as OnlineAuction.Step does at the end of each slot, which bounds the
// departed entries this ledger and the replays that CopyFrom it carry.
func (l *Ledger) Readmit(arriving []StreamBid, numTasks int) Slot {
	l.pool.compact(l.now)
	n := len(l.inst.Bids)
	t := l.now + 1
	a, r := len(arriving), numTasks
	l.inst.Bids = grown(l.inst.Bids, a)
	l.phoneTask = grown(l.phoneTask, a)
	l.inst.Tasks = grown(l.inst.Tasks, r)
	l.byTask = grown(l.byTask, r)
	l.now = t
	for k, sb := range arriving {
		l.inst.Bids = append(l.inst.Bids, Bid{Phone: PhoneID(n + k), Arrival: t, Departure: sb.Departure, Cost: sb.Cost})
		l.phoneTask = append(l.phoneTask, NoTask)
		if l.Poolable(sb.Cost) {
			l.pool.push(&l.inst.Bids[n+k])
		}
	}
	return t
}

// Poolable reports whether the reserve price lets a bid of the given
// cost into the pool (see Instance.poolable).
func (l *Ledger) Poolable(cost float64) bool { return l.inst.poolable(cost) }

// AddTask announces a task arriving in the open slot and returns its
// dense task ID. The task stays unserved unless RecordWin assigns it.
func (l *Ledger) AddTask() TaskID {
	id := TaskID(len(l.inst.Tasks))
	l.inst.Tasks = append(l.inst.Tasks, Task{ID: id, Arrival: l.now})
	l.byTask = append(l.byTask, NoPhone)
	return id
}

// RecordWin records task k being assigned to `winner` in the task's
// slot.
func (l *Ledger) RecordWin(k TaskID, winner PhoneID) {
	l.byTask[k] = winner
	l.phoneTask[winner] = k
}

// PopUsable pops the cheapest pooled phone that is active in the open
// slot and holds no task (NoPhone if none is left).
func (l *Ledger) PopUsable() PhoneID { return l.pool.popUsable(l.now, l.phoneTask, nil) }

// Repool returns phone i, popped by PopUsable but not drafted, to the
// pool.
func (l *Ledger) Repool(i PhoneID) { l.pool.push(&l.inst.Bids[i]) }

// Rewind overwrites l with src's round as it stood when slot s (at most
// src.Now()) closed, reusing l's storage: src's header, the bids and
// tasks that arrived by s, the wins taken by s, and a pool of exactly
// the phones that can still be drawn after s — poolable, departing after
// s, holding no task, and not dropped by s. dropped[i] is the slot in
// which src's owner discarded phone i from its pool for good without a
// win (0, or past the slice: never). Every part of that state is final
// once s closes, and pops follow the strict (cost, ID) order, so the
// rebuilt pool draws as src's did. Rewind(src, 0, nil) empties l for a
// fresh round of src's shape.
func (l *Ledger) Rewind(src *Ledger, s Slot, dropped []Slot) {
	l.inst.Slots, l.inst.Value, l.inst.AllocateAtLoss = src.inst.Slots, src.inst.Value, src.inst.AllocateAtLoss
	l.now = s
	// IDs follow arrival order, so what arrived by s is a prefix.
	bids, tasks := src.inst.Bids, src.inst.Tasks
	bids = bids[:sort.Search(len(bids), func(i int) bool { return bids[i].Arrival > s })]
	tasks = tasks[:sort.Search(len(tasks), func(k int) bool { return tasks[k].Arrival > s })]
	// append grows each slice from l's capacity, doubling a small one and
	// keeping the allocator's size-class slack as capacity; sizing the
	// copies with grown measured more bytes per budgeted bid.
	l.inst.Bids = append(l.inst.Bids[:0], bids...)
	l.inst.Tasks = append(l.inst.Tasks[:0], tasks...)
	l.byTask = append(l.byTask[:0], src.byTask[:len(tasks)]...)
	l.phoneTask = append(l.phoneTask[:0], src.phoneTask[:len(bids)]...)
	l.pool.items = l.pool.items[:0]
	for i := range l.inst.Bids {
		// A win is taken in its task's slot, so the wins taken by s are
		// exactly those of the tasks kept.
		if int(l.phoneTask[i]) >= len(tasks) {
			l.phoneTask[i] = NoTask
		}
		b := &l.inst.Bids[i]
		if l.phoneTask[i] == NoTask && b.Departure > s && l.Poolable(b.Cost) &&
			(i >= len(dropped) || dropped[i] == 0 || dropped[i] > s) {
			l.pool.push(b)
		}
	}
	l.pool.base = len(l.pool.items) // nothing departed by s is left to shed
}

// CopyFrom overwrites l with src's state, reusing l's storage. Both
// ledgers must describe rounds of the same length m.
func (l *Ledger) CopyFrom(src *Ledger) {
	l.inst.Value, l.inst.AllocateAtLoss = src.inst.Value, src.inst.AllocateAtLoss
	l.now = src.now
	l.inst.Bids = append(l.inst.Bids[:0], src.inst.Bids...)
	l.inst.Tasks = append(l.inst.Tasks[:0], src.inst.Tasks...)
	l.byTask = append(l.byTask[:0], src.byTask...)
	l.phoneTask = append(l.phoneTask[:0], src.phoneTask...)
	l.pool.items, l.pool.base = append(l.pool.items[:0], src.pool.items...), src.pool.base
}

// Instance returns a deep copy of the bids and tasks recorded so far.
func (l *Ledger) Instance() *Instance {
	in := l.inst
	return in.Clone()
}

// Outcome assembles the allocation recorded so far with every payment
// zero: the ledger's owner prices its winners its own way.
func (l *Ledger) Outcome() *Outcome { return outcomeOf(&l.inst, l.byTask) }
