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
// allocator — the bids and tasks seen so far plus the cascade side
// state (per-task runner-ups, per-slot winner-cost tables) the payment
// engines price from. The budgeted engine (internal/budget) records its
// own allocation decisions into a Ledger and prices them by
// counterfactual replay; a Pricer prices them with a PaymentEngine
// instead. When the recorded decisions are exactly those the greedy would
// make (RecordWin with the same winners and runner-ups, RecordUnserved
// for the same tasks), every PaymentEngine prices its winners to the
// same floats as OnlineAuction.
//
// A Ledger is not safe for concurrent use.
type Ledger struct {
	inst Instance
	run  greedyRun
	// epoch counts structural growth (AddBid/AddTask). Pricers use it to
	// refresh their instance view and invalidate cached arrival indexes.
	epoch uint64
}

// NewLedger creates the ledger of an m-slot round with per-task value ν.
func NewLedger(m Slot, value float64, allocateAtLoss bool) (*Ledger, error) {
	if m < 1 {
		return nil, fmt.Errorf("ledger: round length %d < 1", m)
	}
	if value < 0 {
		return nil, fmt.Errorf("ledger: negative task value %g", value)
	}
	l := &Ledger{inst: Instance{Slots: m, Value: value, AllocateAtLoss: allocateAtLoss}}
	l.run.resetSlots(m)
	return l, nil
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
func (l *Ledger) WonAt(i PhoneID) Slot { return l.run.wonAt[i] }

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
func (l *Ledger) ByTask() []PhoneID { return append([]PhoneID(nil), l.run.byTask...) }

// WonAtSlots returns a copy of the phone -> winning-slot table (0
// entries for losers).
func (l *Ledger) WonAtSlots() []Slot { return append([]Slot(nil), l.run.wonAt...) }

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
	l.run.phoneTask = append(l.run.phoneTask, NoTask)
	l.run.wonAt = append(l.run.wonAt, 0)
	l.epoch++
	return id, nil
}

// AddTask announces a task arriving in slot t and returns its dense
// task ID. Tasks must be added in non-decreasing arrival order.
func (l *Ledger) AddTask(t Slot) TaskID {
	id := TaskID(len(l.inst.Tasks))
	l.inst.Tasks = append(l.inst.Tasks, Task{ID: id, Arrival: t})
	l.run.byTask = append(l.run.byTask, NoPhone)
	l.run.runnerUp = append(l.run.runnerUp, NoPhone)
	l.epoch++
	return id
}

// RecordWin records task k being assigned to `winner` in slot t, with
// `runnerUp` the next-cheapest eligible phone at assignment time
// (NoPhone if none) — exactly the state the sequential greedy would
// have recorded, which is what keeps cascade payments identical.
func (l *Ledger) RecordWin(k TaskID, winner, runnerUp PhoneID, t Slot) {
	l.run.byTask[k] = winner
	l.run.phoneTask[winner] = k
	l.run.wonAt[winner] = t
	l.run.noteWinner(t, winner, l.inst.Bids[winner].Cost)
	l.run.runnerUp[k] = runnerUp
}

// Assignable reports whether phone i holds no task yet, so an allocator
// may still draft it.
func (l *Ledger) Assignable(i PhoneID) bool { return l.run.phoneTask[i] == NoTask }

// RecordUnserved records that a task arriving in slot t found no
// eligible phone. (The task keeps its NoPhone assignment and NoPhone
// runner-up from AddTask.)
func (l *Ledger) RecordUnserved(t Slot) { l.run.unserved[t]++ }

// Reset empties the ledger for a fresh round of the same shape, keeping
// its storage. Counterfactual replays (internal/budget) reset a scratch
// ledger instead of allocating one per replay.
func (l *Ledger) Reset() {
	l.inst.Bids = l.inst.Bids[:0]
	l.inst.Tasks = l.inst.Tasks[:0]
	l.run.byTask = l.run.byTask[:0]
	l.run.phoneTask = l.run.phoneTask[:0]
	l.run.wonAt = l.run.wonAt[:0]
	l.run.runnerUp = l.run.runnerUp[:0]
	l.run.resetSlots(l.inst.Slots)
	l.epoch++
}

// CopyFrom overwrites l with src's state, reusing l's storage. Both
// ledgers must describe rounds of the same length m. The cascade's
// within-slot memo is not copied: every slot of l is marked stale and
// relinked on first pricing, so copies that are never priced carry none.
func (l *Ledger) CopyFrom(src *Ledger) {
	l.inst.Value, l.inst.AllocateAtLoss = src.inst.Value, src.inst.AllocateAtLoss
	l.inst.Bids = append(l.inst.Bids[:0], src.inst.Bids...)
	l.inst.Tasks = append(l.inst.Tasks[:0], src.inst.Tasks...)
	l.run.byTask = append(l.run.byTask[:0], src.run.byTask...)
	l.run.phoneTask = append(l.run.phoneTask[:0], src.run.phoneTask...)
	l.run.wonAt = append(l.run.wonAt[:0], src.run.wonAt...)
	l.run.runnerUp = append(l.run.runnerUp[:0], src.run.runnerUp...)
	copy(l.run.unserved, src.run.unserved)
	copy(l.run.max1, src.run.max1)
	copy(l.run.max1p, src.run.max1p)
	copy(l.run.max2, src.run.max2)
	l.run.markStale()
	l.epoch++
}

// view returns an Instance header over the live backing arrays (not a
// clone; do not hand to callers that may outlive a mutation).
func (l *Ledger) view() Instance { return l.inst }

// Instance returns a deep copy of the bids and tasks recorded so far.
func (l *Ledger) Instance() *Instance {
	in := l.inst
	return in.Clone()
}

// Outcome assembles the allocation recorded so far and prices every
// current winner with the given pricer. A nil pricer leaves every
// payment zero, for callers that price winners their own way.
func (l *Ledger) Outcome(p *Pricer) *Outcome {
	alloc := NewAllocation(l.NumTasks(), l.NumPhones())
	for k, ph := range l.run.byTask {
		if ph != NoPhone {
			alloc.Assign(TaskID(k), ph, l.inst.Tasks[k].Arrival)
		}
	}
	out := &Outcome{
		Allocation: alloc,
		Payments:   make([]float64, l.NumPhones()),
		Welfare:    alloc.Welfare(&l.inst),
	}
	if p == nil {
		return out
	}
	for i, task := range l.run.phoneTask {
		if task != NoTask {
			out.Payments[i] = p.price(PhoneID(i))
		}
	}
	return out
}

// Pricer computes critical-value payments for a ledger's winners with a
// fixed engine, reusing its own scratch across calls. A Pricer is not
// safe for concurrent use.
type Pricer struct {
	ledger *Ledger
	engine PaymentEngine
	m      *Metrics
	view   Instance
	epoch  uint64
	fresh  bool
	q      paymentQuery
}

// NewPricer creates a pricer over the ledger. A nil engine selects
// CascadePayments; metrics may be nil.
func (l *Ledger) NewPricer(engine PaymentEngine, m *Metrics) *Pricer {
	if engine == nil {
		engine = CascadePayments
	}
	return &Pricer{ledger: l, engine: engine, m: m}
}

// price returns winner i's critical-value payment under the ledger's
// current state. The oracle engine's arrivals index is cached across
// calls and rebuilt only after the ledger has grown.
func (p *Pricer) price(i PhoneID) float64 {
	l := p.ledger
	if !p.fresh || p.epoch != l.epoch {
		p.view = l.view()
		p.q.idx = nil
		p.epoch = l.epoch
		p.fresh = true
	}
	p.q.in = &p.view
	p.q.run = &l.run
	p.q.m = p.m
	return p.engine.price(&p.q, i)
}
