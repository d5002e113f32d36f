// Package core implements the paper's primary contribution: two truthful
// reverse-auction mechanisms for mobile crowdsourcing with dynamic
// smartphones (Feng et al., ICDCS 2014).
//
// Time is divided into unit slots 1..m forming one auction round. Sensing
// tasks arrive at random slots; each task completes within a single slot,
// is worth a fixed value ν to the platform, and may be assigned to at most
// one smartphone. A smartphone is active over a window [a, d] of slots,
// incurs a private cost c per task, and may serve at most one task per
// round. Smartphones bid (ã, d̃, b) where ã ≥ a, d̃ ≤ d (no early-arrival,
// no late-departure) and b is the claimed cost.
//
// The package provides:
//
//   - OfflineMechanism: optimal task allocation via maximum weighted
//     bipartite matching (Hungarian algorithm) with VCG payments.
//     Truthful, individually rational, welfare-optimal.
//   - OnlineMechanism: slot-by-slot greedy allocation with critical-value
//     payments. Truthful, individually rational, 1/2-competitive.
//
// Both satisfy the auction-theoretic properties proved in the paper
// (Theorems 1-7); the test suite audits them on randomized instances.
//
// OnlineAuction runs the online mechanism slot by slot behind Auction,
// the stepping seam the budgeted auction (internal/budget) also
// implements. Both checkpoint to one format, Checkpoint, and both
// restore by replaying the recorded input through Step
// (Checkpoint.Replay); internal/core/auctiontest holds both to one
// conformance suite.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Slot indexes a time slot within a round. Slots are 1-based: the first
// slot of a round is 1 and the last is the round length m. Slot 0 is the
// zero value and never a valid slot.
type Slot int

// PhoneID identifies a smartphone within a round. IDs are dense indexes
// 0..n-1 assigned by the platform at registration.
type PhoneID int

// TaskID identifies a sensing task within a round. IDs are dense indexes
// 0..γ-1 in arrival order (ties within a slot are ordered by submission).
type TaskID int

// NoPhone and NoTask are sentinel values meaning "unassigned".
const (
	NoPhone PhoneID = -1
	NoTask  TaskID  = -1
)

// Task is a sensing task submitted to the platform. Tasks arrive at the
// beginning of their arrival slot and must be served within that slot
// (the paper's τ_{j,k}: the k-th task arriving in slot j).
type Task struct {
	ID      TaskID
	Arrival Slot
}

// Bid is a smartphone's sealed bid B_i = (ã_i, d̃_i, b_i): the claimed
// active window [Arrival, Departure] and the claimed per-task cost.
// A bid admits serving any task whose arrival slot falls inside the
// claimed window.
type Bid struct {
	Phone     PhoneID
	Arrival   Slot    // ã: first slot the phone claims to be active
	Departure Slot    // d̃: last slot the phone claims to be active
	Cost      float64 // b: claimed cost for completing one task
}

// Covers reports whether the bid's claimed active window contains slot t.
func (b Bid) Covers(t Slot) bool { return b.Arrival <= t && t <= b.Departure }

// ErrWindowInverted reports a bid whose claimed window is inverted
// (ã > d̃). Such a bid covers no slot at all, so without an explicit
// rejection it would be admitted and then silently never allocated;
// Validate and the one admission check behind both auctions' Step
// reject it with this error instead, matchable via errors.Is.
var ErrWindowInverted = errors.New("claimed window inverted: arrival after departure")

// Validate checks structural sanity of the bid against a round of m slots.
func (b Bid) Validate(m Slot) error {
	switch {
	case b.Phone < 0:
		return fmt.Errorf("bid: negative phone id %d", b.Phone)
	case b.Arrival > b.Departure:
		return fmt.Errorf("bid %d: %w (window [%d,%d])", b.Phone, ErrWindowInverted, b.Arrival, b.Departure)
	case b.Arrival < 1 || b.Departure > m:
		return fmt.Errorf("bid %d: window [%d,%d] outside round [1,%d]", b.Phone, b.Arrival, b.Departure, m)
	case b.Cost < 0 || math.IsNaN(b.Cost) || math.IsInf(b.Cost, 0):
		return fmt.Errorf("bid %d: cost %g is not a non-negative finite number", b.Phone, b.Cost)
	}
	return nil
}

// Instance is one complete auction round: the round length, the per-task
// value, the submitted bids, and the task arrivals.
//
// Bids are indexed by PhoneID: Bids[i].Phone must equal PhoneID(i).
// Tasks are indexed by TaskID in arrival order: Tasks[k].ID == TaskID(k)
// and arrivals are non-decreasing.
type Instance struct {
	Slots Slot    // m: number of slots in the round
	Value float64 // ν: platform value for one completed task
	Bids  []Bid
	Tasks []Task

	// AllocateAtLoss, when true, permits assigning a task to a phone whose
	// claimed cost exceeds Value (negative task utility). The paper's
	// online equivalence argument ("all the sensing tasks are to be
	// allocated") implicitly assumes every task is worth allocating; the
	// default (false) only makes profitable assignments, which both
	// mechanisms' truthfulness proofs tolerate.
	AllocateAtLoss bool
}

// poolable is the reserve price: it reports whether a bid of the given
// cost may enter the allocation pool, which holds every phone that can
// win. A bid with cost ≥ ν could win only at a loss, so unless
// AllocateAtLoss it is admitted (it still departs, and auditors may
// inspect it) but never pooled.
func (in *Instance) poolable(cost float64) bool {
	return in.AllocateAtLoss || cost < in.Value
}

// NumPhones returns n, the number of participating smartphones.
func (in *Instance) NumPhones() int { return len(in.Bids) }

// NumTasks returns γ, the number of sensing tasks.
func (in *Instance) NumTasks() int { return len(in.Tasks) }

// Validate checks the structural invariants of the instance.
func (in *Instance) Validate() error {
	if in.Slots < 1 {
		return fmt.Errorf("instance: round length %d < 1", in.Slots)
	}
	// The allocation pool stores slots and phone IDs as int32.
	if in.Slots > math.MaxInt32 {
		return fmt.Errorf("instance: round length %d exceeds %d", in.Slots, math.MaxInt32)
	}
	if len(in.Bids) > math.MaxInt32 {
		return fmt.Errorf("instance: %d bids exceed %d", len(in.Bids), math.MaxInt32)
	}
	if in.Value < 0 || math.IsNaN(in.Value) || math.IsInf(in.Value, 0) {
		return fmt.Errorf("instance: task value %g is not a non-negative finite number", in.Value)
	}
	for i, b := range in.Bids {
		if b.Phone != PhoneID(i) {
			return fmt.Errorf("instance: bid %d has phone id %d, want %d", i, b.Phone, i)
		}
		if err := b.Validate(in.Slots); err != nil {
			return err
		}
	}
	var prev Slot
	for k, t := range in.Tasks {
		if t.ID != TaskID(k) {
			return fmt.Errorf("instance: task %d has id %d, want %d", k, t.ID, k)
		}
		if t.Arrival < 1 || t.Arrival > in.Slots {
			return fmt.Errorf("instance: task %d arrives at slot %d outside [1,%d]", k, t.Arrival, in.Slots)
		}
		if t.Arrival < prev {
			return fmt.Errorf("instance: task %d arrival %d out of order (prev %d)", k, t.Arrival, prev)
		}
		prev = t.Arrival
	}
	return nil
}

// TasksPerSlot returns the arrival vector R = (r_1, ..., r_m): the number
// of tasks arriving in each slot.
func (in *Instance) TasksPerSlot() []int {
	r := make([]int, in.Slots+1) // index 0 unused
	for _, t := range in.Tasks {
		r[t.Arrival]++
	}
	return r[1:]
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Slots: in.Slots, Value: in.Value, AllocateAtLoss: in.AllocateAtLoss}
	out.Bids = append([]Bid(nil), in.Bids...)
	out.Tasks = append([]Task(nil), in.Tasks...)
	return out
}

// WithoutPhone returns a copy of the instance with phone i's bid removed.
// The remaining bids keep their original PhoneIDs, so the copy is NOT a
// valid argument to Validate; it serves literal VCG computations of
// ω*(B₋ᵢ), which only need window/cost data.
func (in *Instance) WithoutPhone(i PhoneID) *Instance {
	out := &Instance{Slots: in.Slots, Value: in.Value, AllocateAtLoss: in.AllocateAtLoss}
	out.Bids = make([]Bid, 0, len(in.Bids)-1)
	for _, b := range in.Bids {
		if b.Phone != i {
			out.Bids = append(out.Bids, b)
		}
	}
	out.Tasks = append([]Task(nil), in.Tasks...)
	return out
}

// Assignment records that a task was allocated to a phone in a slot.
type Assignment struct {
	Task  TaskID
	Phone PhoneID
	Slot  Slot // the slot the task is served in (== the task's arrival slot)
}

// Allocation is the outcome of winning-bid determination: a partial
// matching between tasks and phones.
type Allocation struct {
	// ByTask maps TaskID -> PhoneID (NoPhone if the task is unserved).
	ByTask []PhoneID
	// ByPhone maps PhoneID -> TaskID (NoTask if the phone lost).
	ByPhone []TaskID
	// WonAt maps PhoneID -> slot its task is served in (0 if it lost).
	WonAt []Slot
}

// NewAllocation returns an empty allocation for γ tasks and n phones.
func NewAllocation(numTasks, numPhones int) *Allocation {
	a := &Allocation{
		ByTask:  make([]PhoneID, numTasks),
		ByPhone: make([]TaskID, numPhones),
		WonAt:   make([]Slot, numPhones),
	}
	for k := range a.ByTask {
		a.ByTask[k] = NoPhone
	}
	for i := range a.ByPhone {
		a.ByPhone[i] = NoTask
	}
	return a
}

// Assign records task k being served by phone i in slot t.
func (a *Allocation) Assign(k TaskID, i PhoneID, t Slot) {
	a.ByTask[k] = i
	a.ByPhone[i] = k
	a.WonAt[i] = t
}

// Winners returns the IDs of phones that were allocated a task, in
// ascending order.
func (a *Allocation) Winners() []PhoneID {
	var w []PhoneID
	for i, k := range a.ByPhone {
		if k != NoTask {
			w = append(w, PhoneID(i))
		}
	}
	return w
}

// NumServed returns the number of tasks that received a phone.
func (a *Allocation) NumServed() int {
	n := 0
	for _, p := range a.ByTask {
		if p != NoPhone {
			n++
		}
	}
	return n
}

// Assignments returns the explicit assignment list, ordered by task ID.
func (a *Allocation) Assignments() []Assignment {
	out := make([]Assignment, 0, len(a.ByTask))
	for k, p := range a.ByTask {
		if p != NoPhone {
			out = append(out, Assignment{Task: TaskID(k), Phone: p, Slot: a.WonAt[p]})
		}
	}
	return out
}

// Welfare returns the social welfare of the allocation for the given
// instance, Σ (ν − b_i) over served tasks (Definition 3), computed on the
// claimed costs in the instance's bids. When bids are truthful this equals
// the paper's real-cost social welfare.
func (a *Allocation) Welfare(in *Instance) float64 {
	var w float64
	for _, p := range a.ByTask {
		if p != NoPhone {
			w += in.Value - in.Bids[p].Cost
		}
	}
	return w
}

// Validate checks the allocation against the instance's feasibility
// constraints: consistency of the two index maps, window containment
// (constraint (6)), and one-task-per-phone (constraint (5)).
func (a *Allocation) Validate(in *Instance) error {
	if len(a.ByTask) != in.NumTasks() || len(a.ByPhone) != in.NumPhones() {
		return errors.New("allocation: size mismatch with instance")
	}
	for k, p := range a.ByTask {
		if p == NoPhone {
			continue
		}
		if int(p) >= len(a.ByPhone) {
			return fmt.Errorf("allocation: task %d assigned to unknown phone %d", k, p)
		}
		if a.ByPhone[p] != TaskID(k) {
			return fmt.Errorf("allocation: task %d -> phone %d but phone %d -> task %d", k, p, p, a.ByPhone[p])
		}
		arrive := in.Tasks[k].Arrival
		if a.WonAt[p] != arrive {
			return fmt.Errorf("allocation: task %d served in slot %d, arrives in slot %d", k, a.WonAt[p], arrive)
		}
		if !in.Bids[p].Covers(arrive) {
			return fmt.Errorf("allocation: phone %d serves slot %d outside window [%d,%d]",
				p, arrive, in.Bids[p].Arrival, in.Bids[p].Departure)
		}
	}
	for i, k := range a.ByPhone {
		if k == NoTask {
			continue
		}
		if int(k) >= len(a.ByTask) || a.ByTask[k] != PhoneID(i) {
			return fmt.Errorf("allocation: phone %d -> task %d not mirrored", i, k)
		}
	}
	return nil
}

// Outcome is the complete result of running a mechanism on an instance:
// the allocation, the per-phone payments, and summary metrics.
type Outcome struct {
	Allocation *Allocation
	// Payments maps PhoneID -> payment. Losers are paid 0.
	Payments []float64
	// Welfare is Σ (ν − b_i) over served tasks, on claimed costs.
	Welfare float64
}

// TotalPayment returns the sum of all payments made by the platform.
func (o *Outcome) TotalPayment() float64 {
	var s float64
	for _, p := range o.Payments {
		s += p
	}
	return s
}

// TotalWinnerCost returns Σ b_i over winning bids.
func (o *Outcome) TotalWinnerCost(in *Instance) float64 {
	var s float64
	for _, i := range o.Allocation.Winners() {
		s += in.Bids[i].Cost
	}
	return s
}

// OverpaymentRatio returns σ = Σ(p_i − c_i) / Σ c_i over winners
// (Definition 11), computed against the costs in the given bids (pass the
// truthful instance to measure against real costs). It returns 0 when no
// phone won or total winner cost is zero.
func (o *Outcome) OverpaymentRatio(in *Instance) float64 {
	var pay, cost float64
	for _, i := range o.Allocation.Winners() {
		pay += o.Payments[i]
		cost += in.Bids[i].Cost
	}
	if cost == 0 {
		return 0
	}
	return (pay - cost) / cost
}

// Utility returns phone i's utility under this outcome given its real cost:
// payment − realCost if it won, else 0 (Definition 1).
func (o *Outcome) Utility(i PhoneID, realCost float64) float64 {
	if o.Allocation.ByPhone[i] == NoTask {
		return 0
	}
	return o.Payments[i] - realCost
}

// Mechanism is a complete auction mechanism: an allocation rule plus a
// payment rule, executed on one round.
type Mechanism interface {
	// Name returns a short identifier ("offline-vcg", "online-greedy", ...).
	Name() string
	// Run executes the mechanism on the instance and returns the outcome.
	// The instance is not modified.
	Run(in *Instance) (*Outcome, error)
}

// sortBidsByCost sorts phone IDs by (claimed cost, phone ID) ascending.
// The deterministic ID tiebreak keeps mechanism runs reproducible.
func sortBidsByCost(in *Instance, ids []PhoneID) {
	sort.Slice(ids, func(x, y int) bool {
		bx, by := in.Bids[ids[x]], in.Bids[ids[y]]
		if bx.Cost != by.Cost {
			return bx.Cost < by.Cost
		}
		return ids[x] < ids[y]
	})
}
