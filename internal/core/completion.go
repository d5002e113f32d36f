package core

import (
	"errors"
	"fmt"
	"sort"
)

// This file adds the unreliable-winner lifecycle to OnlineAuction.
// The paper assumes a phone that wins a slot performs its task; real
// dynamic smartphones no-show, arrive late, or vanish mid-task. With
// completion tracking enabled, every assignment must be resolved:
//
//	assigned ──Complete──> completed   (winner delivered; payment stands)
//	assigned ──Default───> defaulted   (winner failed; payment clawed back,
//	                                    task re-allocated in place)
//
// A default releases the task and re-assigns it to the next-cheapest
// eligible bidder still present — the same phone the greedy run's
// runner-up record would name unless that phone has itself won, defaulted, or is
// reserve-priced, in which case the scan continues down the cost order.
// The replacement is priced at its own critical value under the
// post-default state; the defaulted phone nets zero (any payment already
// issued at its departure is reported as a clawback). Tracking is off by
// default and the disabled path is allocation-free.

// CompletionStatus is the lifecycle state of a phone's assignment.
type CompletionStatus int8

// Lifecycle states. StatusNone covers phones that never won (and all
// phones while tracking is disabled).
const (
	StatusNone      CompletionStatus = iota // no live or past assignment
	StatusAssigned                          // won a task, outcome pending
	StatusCompleted                         // delivered its task
	StatusDefaulted                         // failed its task; pays nothing
)

// String implements fmt.Stringer.
func (s CompletionStatus) String() string {
	switch s {
	case StatusNone:
		return "none"
	case StatusAssigned:
		return "assigned"
	case StatusCompleted:
		return "completed"
	case StatusDefaulted:
		return "defaulted"
	default:
		return fmt.Sprintf("CompletionStatus(%d)", int8(s))
	}
}

// Typed lifecycle errors, matchable via errors.Is at every validation
// surface (OnlineAuction and the platform's protocol layer).
var (
	// ErrAlreadyCompleted rejects a duplicate completion report, or a
	// default of a task that was already delivered.
	ErrAlreadyCompleted = errors.New("task already completed")
	// ErrNotAssigned rejects a completion or default for a phone with no
	// live assignment: it never won, its ID is unknown, or it already
	// defaulted.
	ErrNotAssigned = errors.New("phone has no live assignment")
	// ErrNotTracking rejects lifecycle calls while completion tracking
	// is disabled.
	ErrNotTracking = errors.New("completion tracking disabled")
)

// CompletionEvent records one default for snapshot replay: phone Phone
// defaulted while the auction clock stood at Slot. Completions do not
// mutate allocation state, so only defaults need to be replayed.
type CompletionEvent struct {
	Phone PhoneID `json:"phone"`
	Slot  Slot    `json:"slot"`
}

// CompletionCounts aggregates lifecycle outcomes for observability.
type CompletionCounts struct {
	Completed   uint64 `json:"completed"`
	Defaulted   uint64 `json:"defaulted"`
	Reallocated uint64 `json:"reallocated"` // defaults whose task found a replacement
	Unreplaced  uint64 `json:"unreplaced"`  // defaults whose task went unserved
	Clawbacks   uint64 `json:"clawbacks"`   // defaults after a payment had been issued
}

// CompletionState is one phone's lifecycle view.
type CompletionState struct {
	Status CompletionStatus
	Task   TaskID  // current assignment (NoTask if none, incl. after default)
	Slot   Slot    // the assignment's slot (0 if none)
	Paid   float64 // amount issued (clawed back if Status == StatusDefaulted)
	PaidAt Slot    // auction clock when the payment was issued (0 if never)
}

// CompletionSnapshot is the serialized tracker state embedded in
// OnlineAuction snapshots.
type CompletionSnapshot struct {
	Statuses []CompletionStatus `json:"statuses"`
	Paid     []float64          `json:"paid,omitempty"`
	PaidAt   []Slot             `json:"paidAt,omitempty"`
	Log      []CompletionEvent  `json:"log,omitempty"`
	Counts   CompletionCounts   `json:"counts"`
}

// DefaultResult reports everything a Default did.
type DefaultResult struct {
	Phone       PhoneID // the defaulted winner
	Task        TaskID  // the task it abandoned
	Slot        Slot    // the task's slot
	Replacement PhoneID // new winner (NoPhone if the task goes unserved)
	// Clawback is the payment previously issued to the defaulted phone,
	// now owed back to the platform (0 if it had not been paid yet).
	Clawback float64
	// Payments holds the replacement's payment when it has already
	// departed by the time it is drafted (it must be paid immediately —
	// its departure slot's settlement has already run).
	Payments []PaymentNotice
}

// completions is OnlineAuction's record of issued payments and its
// lifecycle tracker. taskPaid, indexed by TaskID, is kept whether or not
// tracking is on: Outcome and Standing read it instead of re-pricing a
// departed winner (see OnlineAuction.settled). The lifecycle state is
// kept only while tracking is on, and its per-phone slices are extended
// only then: status, and paid and paidAt, the payment record of each
// phone, which outlives a default so the default can claw it back. When
// tracking is off the lifecycle methods are cheap no-ops.
type completions struct {
	enabled  bool
	taskPaid []float64 // task -> amount last issued to its winner
	status   []CompletionStatus
	paid     []float64 // phone -> amount issued (clawed back if defaulted)
	paidAt   []Slot    // phone -> clock the payment was issued at (0: none)
	log      []CompletionEvent
	counts   CompletionCounts
}

// grow extends the lifecycle's per-phone slices to cover n phones while
// tracking is on.
func (c *completions) grow(n int) {
	if c.enabled {
		c.status = extend(c.status, n)
		c.paid = extend(c.paid, n)
		c.paidAt = extend(c.paidAt, n)
	}
}

// blocked reports that p may never be allocated (again): it holds or
// held an assignment. Pool pop paths use it to skip re-allocated
// winners and defaulted phones left behind in the heaps. A nil tracker
// (an auction with no lifecycle) blocks nothing.
func (c *completions) blocked(p PhoneID) bool {
	return c != nil && c.enabled && c.status[p] != StatusNone
}

// markAssigned notes that p won a task.
func (c *completions) markAssigned(p PhoneID) {
	if c.enabled {
		c.status[p] = StatusAssigned
	}
}

// payable reports whether a departing winner should be paid: with
// tracking off every winner is; with tracking on, defaulted phones are
// not (their task is cleared too, so this is a second line of defense).
func (c *completions) payable(p PhoneID) bool {
	return !c.enabled || c.status[p] == StatusAssigned || c.status[p] == StatusCompleted
}

// markPaid records the payment issued to p, the winner of task, so the
// outcome reports the amount actually executed (later defaults in
// overlapping slots may shift the recomputed cascade value, but an
// executed payment does not move).
func (c *completions) markPaid(p PhoneID, task TaskID, amount float64, now Slot) {
	c.taskPaid[task] = amount
	if c.enabled {
		c.paid[p] = amount
		c.paidAt[p] = now
	}
}

// complete transitions p from assigned to completed.
func (c *completions) complete(p PhoneID) error {
	if !c.enabled {
		return ErrNotTracking
	}
	if p < 0 || int(p) >= len(c.status) {
		return fmt.Errorf("complete: unknown phone %d: %w", p, ErrNotAssigned)
	}
	switch c.status[p] {
	case StatusAssigned:
		c.status[p] = StatusCompleted
		c.counts.Completed++
		return nil
	case StatusCompleted:
		return fmt.Errorf("complete: phone %d: %w", p, ErrAlreadyCompleted)
	default:
		return fmt.Errorf("complete: phone %d (status %v): %w", p, c.status[p], ErrNotAssigned)
	}
}

// marshal copies the tracker state for a snapshot (nil when tracking is
// off, so pre-lifecycle snapshots are byte-identical to version 1).
func (c *completions) marshal() *CompletionSnapshot {
	if !c.enabled {
		return nil
	}
	return &CompletionSnapshot{
		Statuses: append([]CompletionStatus(nil), c.status...),
		Paid:     append([]float64(nil), c.paid...),
		PaidAt:   append([]Slot(nil), c.paidAt...),
		Log:      append([]CompletionEvent(nil), c.log...),
		Counts:   c.counts,
	}
}

// restoreFrom overwrites the tracker with snapshot state once a replay
// has rebuilt the allocation and re-applied the default log. Each
// recorded status must equal the replayed one, except that a completed
// phone replays as assigned (completions are not logged); issued
// payments and counters are restored verbatim. Checkpoint.Replay has
// checked the section's sizes.
func (c *completions) restoreFrom(snap *CompletionSnapshot) error {
	for p, s := range snap.Statuses {
		if s != c.status[p] && (s != StatusCompleted || c.status[p] != StatusAssigned) {
			return fmt.Errorf("completions: phone %d status %v disagrees with replay %v", p, s, c.status[p])
		}
	}
	copy(c.status, snap.Statuses)
	clear(c.paid)
	clear(c.paidAt)
	copy(c.paid, snap.Paid)
	copy(c.paidAt, snap.PaidAt)
	c.counts = snap.Counts
	return nil
}

// state assembles p's lifecycle view from the allocation's phoneTask
// over tasks.
func (c *completions) state(phoneTask []TaskID, tasks []Task, p PhoneID) CompletionState {
	st := CompletionState{Task: NoTask}
	if !c.enabled || p < 0 || int(p) >= len(c.status) {
		return st
	}
	st.Status = c.status[p]
	st.Task = phoneTask[p]
	st.Slot = wonAt(tasks, st.Task)
	st.Paid = c.paid[p]
	st.PaidAt = c.paidAt[p]
	return st
}

// rebuildSlotWinners recomputes slot t's top-2 winner-cost table from
// the slot's current winners after a default mutated the winner set,
// and marks the slot's chain memo stale (even when no winner is left).
// Tasks are stored in arrival order, so the slot's tasks form one
// contiguous range.
func rebuildSlotWinners(in *Instance, run *greedyRun, t Slot) {
	run.max1[t], run.max2[t], run.max1p[t] = 0, 0, NoPhone
	run.stale[t] = true
	lo := sort.Search(len(in.Tasks), func(i int) bool { return in.Tasks[i].Arrival >= t })
	for k := lo; k < len(in.Tasks) && in.Tasks[k].Arrival == t; k++ {
		if p := run.byTask[k]; p != NoPhone {
			run.noteWinner(t, p, in.Bids[p].Cost)
		}
	}
}

// Default marks phone p's assignment as failed: p is paid nothing (any
// issued payment is reported as a clawback), and its task is re-allocated
// to the next-cheapest eligible phone, which is priced at its own
// critical value under the post-default state (by the cascade at once,
// if it has already departed). Errors mirror Complete. The replacement
// scan covers every bid, which generalizes the recorded runner-up:
// nothing cheaper than it can be eligible unless it has itself won or
// defaulted since.
func (oa *OnlineAuction) Default(p PhoneID) (*DefaultResult, error) {
	c, run := &oa.comp, &oa.run
	if !c.enabled {
		return nil, ErrNotTracking
	}
	in := oa.instance()
	if p < 0 || int(p) >= len(c.status) {
		return nil, fmt.Errorf("default: unknown phone %d: %w", p, ErrNotAssigned)
	}
	switch c.status[p] {
	case StatusAssigned:
	case StatusCompleted:
		return nil, fmt.Errorf("default: phone %d: %w", p, ErrAlreadyCompleted)
	default:
		return nil, fmt.Errorf("default: phone %d (status %v): %w", p, c.status[p], ErrNotAssigned)
	}

	k := run.phoneTask[p]
	t := in.Tasks[k].Arrival
	res := &DefaultResult{Phone: p, Task: k, Slot: t, Replacement: NoPhone}
	c.status[p] = StatusDefaulted
	c.counts.Defaulted++
	c.log = append(c.log, CompletionEvent{Phone: p, Slot: oa.now})
	if c.paidAt[p] != 0 {
		res.Clawback = c.paid[p]
		c.counts.Clawbacks++
	}
	run.phoneTask[p] = NoTask
	run.byTask[k] = NoPhone

	// Replacement scan: cheapest and second-cheapest phones that cover
	// slot t, have no assignment history, and clear the reserve price.
	// (cost, id) ordering matches the allocation heap.
	best, second := NoPhone, NoPhone
	for i := range in.Bids {
		r := PhoneID(i)
		b := &in.Bids[i]
		if !b.Covers(t) || run.phoneTask[r] != NoTask || c.status[r] != StatusNone {
			continue
		}
		if !in.poolable(b.Cost) {
			continue
		}
		switch {
		case best == NoPhone || b.Cost < in.Bids[best].Cost || (b.Cost == in.Bids[best].Cost && r < best):
			best, second = r, best
		case second == NoPhone || b.Cost < in.Bids[second].Cost || (b.Cost == in.Bids[second].Cost && r < second):
			second = r
		}
	}
	if best == NoPhone {
		run.unserved[t]++
		run.runnerUp[k] = NoPhone
		rebuildSlotWinners(in, run, t)
		c.counts.Unreplaced++
		return res, nil
	}
	run.byTask[k] = best
	run.phoneTask[best] = k
	run.runnerUp[k] = second
	c.status[best] = StatusAssigned
	rebuildSlotWinners(in, run, t)
	c.counts.Reallocated++
	res.Replacement = best
	if in.Bids[best].Departure <= oa.now {
		amount := oa.price(in, best)
		c.markPaid(best, k, amount, oa.now)
		res.Payments = append(res.Payments, PaymentNotice{Phone: best, Amount: amount})
	}
	return res, nil
}
