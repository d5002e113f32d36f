package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/workload"
)

// engineInput is one generated round, pre-split into the per-slot stream
// the engine is stepped with, plus its reference outcome.
type engineInput struct {
	seed     uint64 // the instance's seed: generating it again gives the same round
	inst     *core.Instance
	arriving [][]core.StreamBid // index t = 1..Slots
	tasks    []int
	burst    []bool
	ref      *core.Outcome
}

func newEngineInput(in *core.Instance, burstEvery int) *engineInput {
	e := &engineInput{
		inst:     in,
		arriving: make([][]core.StreamBid, in.Slots+1),
		tasks:    make([]int, in.Slots+1),
		burst:    make([]bool, in.Slots+1),
	}
	for _, b := range in.Bids {
		e.arriving[b.Arrival] = append(e.arriving[b.Arrival], core.StreamBid{Departure: b.Departure, Cost: b.Cost})
	}
	for _, t := range in.Tasks {
		e.tasks[t.Arrival]++
	}
	for t := 1; t <= int(in.Slots); t++ {
		e.burst[t] = burstEvery > 0 && t%burstEvery == 0
	}
	return e
}

// engineWorkload steps a core.Auction implementation directly, round
// after round on one goroutine: no wire, no platform. Every round plays a
// fresh instance drawn from the seed's instance stream, so a run averages
// over many inputs rather than over one input's luck. The instance is
// generated, and its reference computed, before the timed round.
type engineWorkload struct {
	layer string // "core" or "budget": span and metric prefix
	// seeds yields the seed of each next instance.
	seeds    *workload.RNG
	generate func(seed uint64) (*core.Instance, error)
	burst    int // every burst-th slot is a burst slot (0: none)
	// newAuction starts a round; metrics is non-nil only in traced runs.
	newAuction func(metrics *core.Metrics) (core.Auction, error)
	// reference computes e.ref; check compares a round with it.
	reference func(e *engineInput) error
	check     func(e *engineInput, out *core.Outcome, paid []core.PaymentNotice) error
	// budget is B for the budgeted workload (0 otherwise).
	budget float64
	// generated counts the instances drawn from the stream; screened those
	// left out because their reference round shows the known bug (see
	// errScreened), and counted those already reported by a measurement.
	generated, screened, counted int
	// queue holds instances generated and referenced at set-up; they are
	// played first.
	queue []*engineInput
	// played holds the seeds of the instances the last measurement played,
	// in order; a non-nil replay makes the next one play exactly these.
	played, replay []uint64
}

// errScreened marks an instance on which the mechanism under test shows a
// known bug before any timing: such an instance is left out of the stream
// and counted, so the benchmark keeps measuring inputs the program handles
// correctly, and reports how many it skipped.
var errScreened = errors.New("instance screened out")

const (
	// maxScreened bounds how many instances in a row may be screened out
	// before the workload gives up.
	maxScreened = 20
	// Screened instances count as failures once more than maxScreenedShare
	// of the generated ones (and more than minScreenedFailure) were
	// screened: the known bug hits about 1 instance in 200, so a share
	// well past that is a new regression, not the old bug.
	maxScreenedShare   = 0.02
	minScreenedFailure = 3
)

func (w *engineWorkload) close() {}

// rewind makes the next measurement play exactly the instances the last
// one played, in the same order, so a traced measurement times the same
// inputs as the untraced one before it.
func (w *engineWorkload) rewind() { w.replay, w.played = w.played, nil }

// nextInput returns the next instance to play with its reference,
// generated and computed untimed.
func (w *engineWorkload) nextInput() (*engineInput, error) {
	if len(w.replay) > 0 {
		seed := w.replay[0]
		w.replay = w.replay[1:]
		return w.input(seed)
	}
	if len(w.queue) > 0 {
		e := w.queue[0]
		w.queue = w.queue[1:]
		return e, nil
	}
	return w.generateInput()
}

// generateInput draws the next instance of the stream that is not
// screened out.
func (w *engineWorkload) generateInput() (*engineInput, error) {
	for run := 0; ; run++ {
		w.generated++
		e, err := w.input(w.seeds.Uint64())
		if errors.Is(err, errScreened) && run < maxScreened {
			w.screened++
			continue
		}
		return e, err
	}
}

// input generates the instance of one seed and computes its reference.
func (w *engineWorkload) input(seed uint64) (*engineInput, error) {
	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	e := newEngineInput(in, w.burst)
	e.seed = seed
	if err := w.reference(e); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return e, nil
}

// countScreened adds the instances screened out since the last
// measurement to rs as attempted operations, and as failed ones once the
// run's screened share is past the known bug's rate.
func (w *engineWorkload) countScreened(rs *runStats) {
	n := int64(w.screened - w.counted)
	w.counted = w.screened
	if w.screened == 0 {
		return
	}
	rs.attempted += n
	rs.info = append(rs.info, fmt.Sprintf("%d of %d generated instances screened out so far: reference round pays a winner below its bid",
		w.screened, w.generated))
	if w.screened > minScreenedFailure && float64(w.screened) > maxScreenedShare*float64(w.generated) {
		rs.failN(n, "%d of %d generated instances pay a winner below its bid, more than %g of them",
			w.screened, w.generated, maxScreenedShare)
	}
}

// warmUp prepares the first prepared instances of the stream and plays
// one checked round outside any timing.
func (w *engineWorkload) warmUp(prepared int) (*engineWorkload, error) {
	for len(w.queue) < prepared {
		e, err := w.generateInput()
		if err != nil {
			return nil, err
		}
		w.queue = append(w.queue, e)
	}
	e, err := w.nextInput()
	if err != nil {
		return nil, err
	}
	out, paid, _, err := w.playRound(e, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := w.check(e, out, paid); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	return w, nil
}

// Engine-heavy: workload.HeavyTrafficScenario scaled to ~10^5 bids per
// 50-slot round. The reference is the batch mechanism on the instance.
func newEngineHeavy(seed uint64, tiny bool) (*engineWorkload, error) {
	sc := workload.HeavyTrafficScenario()
	sc.PhoneRate, sc.TaskRate = 2000, 200
	if tiny {
		sc.PhoneRate, sc.TaskRate = 40, 4
	}
	w := &engineWorkload{
		layer: "core", seeds: workload.NewRNG(seed), generate: sc.Generate, burst: sc.BurstEvery,
		reference: func(e *engineInput) (err error) {
			e.ref, err = (&core.OnlineMechanism{}).Run(e.inst)
			return err
		},
		check: checkAgainstBatch,
	}
	w.newAuction = func(m *core.Metrics) (core.Auction, error) {
		a, err := core.NewOnlineAuction(sc.Slots, sc.Value, sc.AllocateAtLoss)
		if err != nil {
			return nil, err
		}
		a.SetMetrics(m)
		return a, nil
	}
	return w.warmUp(1)
}

// checkAgainstBatch requires the streamed round to equal
// OnlineMechanism.Run on the batch instance bit for bit: allocation,
// every Outcome payment, and every payment notice issued at departure.
func checkAgainstBatch(e *engineInput, out *core.Outcome, paid []core.PaymentNotice) error {
	if err := out.Allocation.Validate(e.inst); err != nil {
		return err
	}
	if err := sameOutcome(e.ref, out); err != nil {
		return err
	}
	winners := 0
	for _, k := range e.ref.Allocation.ByPhone {
		if k != core.NoTask {
			winners++
		}
	}
	if len(paid) != winners {
		return fmt.Errorf("%d payments issued at departure, reference has %d winners", len(paid), winners)
	}
	for _, p := range paid {
		if math.Float64bits(p.Amount) != math.Float64bits(e.ref.Payments[p.Phone]) {
			return fmt.Errorf("phone %d paid %v at departure, reference %v", p.Phone, p.Amount, e.ref.Payments[p.Phone])
		}
	}
	return nil
}

// sameOutcome requires allocation and payments to match bit for bit.
func sameOutcome(want, got *core.Outcome) error {
	wa, ga := want.Allocation, got.Allocation
	if len(wa.ByTask) != len(ga.ByTask) || len(wa.ByPhone) != len(ga.ByPhone) || len(want.Payments) != len(got.Payments) {
		return fmt.Errorf("outcome size %d tasks/%d phones, reference %d/%d",
			len(ga.ByTask), len(ga.ByPhone), len(wa.ByTask), len(wa.ByPhone))
	}
	for k := range wa.ByTask {
		if wa.ByTask[k] != ga.ByTask[k] {
			return fmt.Errorf("task %d -> phone %d, reference %d", k, ga.ByTask[k], wa.ByTask[k])
		}
	}
	for i := range wa.ByPhone {
		if wa.ByPhone[i] != ga.ByPhone[i] || wa.WonAt[i] != ga.WonAt[i] {
			return fmt.Errorf("phone %d -> task %d@%d, reference %d@%d",
				i, ga.ByPhone[i], ga.WonAt[i], wa.ByPhone[i], wa.WonAt[i])
		}
		if math.Float64bits(want.Payments[i]) != math.Float64bits(got.Payments[i]) {
			return fmt.Errorf("phone %d paid %v, reference %v", i, got.Payments[i], want.Payments[i])
		}
	}
	return nil
}

// Budget: budget.Auction (stage engine, B = 2000) over the paper's
// Table I scenario. The reference is a first, untimed round of the same
// instance: the measured round must reproduce it exactly and keep every
// invariant. An instance whose reference round keeps every invariant but
// pays a winner below its bid is screened out: budget.Auction's
// counterfactual pricing does that on about one Table I instance in 200
// (see README.md). A reference round that breaks any other invariant is
// kept, so the measured round fails on it.
const (
	budgetB        = 2000
	budgetPrepared = 8
)

func newBudget(seed uint64, tiny bool) (*engineWorkload, error) {
	sc := workload.DefaultScenario()
	if tiny {
		sc.Slots = 10
	}
	w := &engineWorkload{
		layer: "budget", seeds: workload.NewRNG(seed), generate: sc.Generate,
		budget: budgetB,
	}
	w.newAuction = func(m *core.Metrics) (core.Auction, error) {
		a, err := budget.New(sc.Slots, sc.Value, sc.AllocateAtLoss, budgetB, budget.StageSampling{})
		if err != nil {
			return nil, err
		}
		a.SetMetrics(m)
		return a, nil
	}
	w.reference = func(e *engineInput) error {
		out, paid, _, err := w.playRound(e, nil, nil, nil)
		if err != nil {
			return err
		}
		if err := checkBudgetInvariants(e, out, paid); errors.Is(err, errBelowBid) {
			return fmt.Errorf("%w: %v", errScreened, err)
		}
		e.ref = out
		return nil
	}
	w.check = func(e *engineInput, out *core.Outcome, paid []core.PaymentNotice) error {
		if err := checkBudgetInvariants(e, out, paid); err != nil {
			return err
		}
		if err := sameOutcome(e.ref, out); err != nil {
			return fmt.Errorf("rounds of one instance differ: %w", err)
		}
		return nil
	}
	// One Table I round is short and its cost swings with the instance,
	// so set-up prepares several: setup_s then averages over them.
	return w.warmUp(budgetPrepared)
}

// errBelowBid marks the one invariant break the budget workload screens
// for: a winner paid below its bid.
var errBelowBid = errors.New("winner paid below its bid")

// checkBudgetInvariants: Σ pay ≤ B, every winner paid exactly what was
// issued at departure, every loser paid 0, and every winner paid at least
// its bid. The last is checked only once the others hold, so errBelowBid
// means it is the only break.
func checkBudgetInvariants(e *engineInput, out *core.Outcome, paid []core.PaymentNotice) error {
	if err := out.Allocation.Validate(e.inst); err != nil {
		return err
	}
	if total := out.TotalPayment(); total > budgetB*(1+1e-12) {
		return fmt.Errorf("total payment %v exceeds budget %v", total, float64(budgetB))
	}
	issued := make(map[core.PhoneID]float64, len(paid))
	for _, p := range paid {
		issued[p.Phone] = p.Amount
	}
	for i, k := range out.Allocation.ByPhone {
		pay := out.Payments[i]
		if k == core.NoTask {
			if pay != 0 {
				return fmt.Errorf("loser %d paid %v", i, pay)
			}
			continue
		}
		if got, ok := issued[core.PhoneID(i)]; !ok || math.Float64bits(got) != math.Float64bits(pay) {
			return fmt.Errorf("winner %d: outcome pays %v, departure notice %v (issued %v)", i, pay, got, ok)
		}
	}
	for i, k := range out.Allocation.ByPhone {
		if k != core.NoTask && out.Payments[i] < e.inst.Bids[i].Cost {
			return fmt.Errorf("%w: winner %d paid %v, bid %v", errBelowBid, i, out.Payments[i], e.inst.Bids[i].Cost)
		}
	}
	return nil
}

// roundTiming is what playRound timed, in CPU time of the playing thread.
type roundTiming struct {
	steps   []time.Duration // index t-1
	outcome time.Duration
}

// cpu reads the thread's CPU clock when rt is timing (0 otherwise).
func (rt *roundTiming) cpu() time.Duration {
	if rt == nil {
		return 0
	}
	return threadCPU()
}

// playRound steps one fresh auction through e and assembles its outcome.
// When rt is non-nil the steps and the outcome are timed into it in CPU
// time, so the caller must hold its OS thread; a non-nil log records a
// span per call, in wall time. It returns the round's trace id.
func (w *engineWorkload) playRound(e *engineInput, metrics *core.Metrics, rt *roundTiming, log *spanLog) (*core.Outcome, []core.PaymentNotice, int64, error) {
	a, err := w.newAuction(metrics)
	if err != nil {
		return nil, nil, 0, err
	}
	var paid []core.PaymentNotice
	var trace, root int64
	var roundStart time.Time
	if log != nil {
		trace, root, roundStart = log.tr.newTrace(), log.reserve(), time.Now()
	}
	for t := core.Slot(1); t <= e.inst.Slots; t++ {
		start, cpu0 := time.Now(), rt.cpu()
		res, err := a.Step(e.arriving[t], e.tasks[t])
		cpu1, end := rt.cpu(), time.Now()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("slot %d: %w", t, err)
		}
		if rt != nil {
			rt.steps = append(rt.steps, cpu1-cpu0)
		}
		log.record(w.layer+".step", trace, root, start, end)
		paid = append(paid, res.Payments...)
	}
	start, cpu0 := time.Now(), rt.cpu()
	out := a.Outcome()
	cpu1, end := rt.cpu(), time.Now()
	if rt != nil {
		rt.outcome = cpu1 - cpu0
	}
	log.record(w.layer+".outcome", trace, root, start, end)
	log.close(root, "harness.round", trace, 0, roundStart, end)
	return out, paid, trace, nil
}

// engineRounds accumulates the per-layer numbers of a run's rounds.
type engineRounds struct {
	steps, bursts, outcomes samples
	winners, paid           float64
}

// measureRound plays e's round, timed, and checks it against the
// reference outside the timed region. The round's busy time is the
// process's CPU time over it, so garbage collection on other threads
// counts.
func (w *engineWorkload) measureRound(rs *runStats, e *engineInput, metrics *core.Metrics, log *spanLog, acc *engineRounds) error {
	rt := roundTiming{steps: make([]time.Duration, 0, e.inst.Slots)}
	// Every timed round starts from a collected heap, so the garbage of
	// generation and reference is not paid for inside it.
	runtime.GC()
	alloc0 := totalAlloc()
	cpu0 := processCPU()
	out, paid, trace, err := w.playRound(e, metrics, &rt, log)
	if err != nil {
		return err
	}
	rs.busy += processCPU() - cpu0
	rs.allocBytes += totalAlloc() - alloc0
	w.played = append(w.played, e.seed)

	rs.attempted++
	checkStart := time.Now()
	if err := w.check(e, out, paid); err != nil {
		rs.fail("round %d: %v", rs.attempted, err)
	}
	log.record("harness.check", trace, 0, checkStart, time.Now())

	acc.outcomes.add(float64(rt.outcome.Nanoseconds()) / 1e6)
	// Latencies: bids are acked, and assignments and payments delivered,
	// by the step that produced them, so each step's duration is weighted
	// by how many of each it produced.
	assigned := make([]int, e.inst.Slots+1)
	for _, wt := range out.Allocation.WonAt {
		if wt != 0 {
			assigned[wt]++
		}
	}
	departing := make([]int, e.inst.Slots+1)
	for _, p := range paid {
		departing[e.inst.Bids[p.Phone].Departure]++
	}
	for i, st := range rt.steps {
		t := i + 1
		acc.steps.addDur(st, 1)
		if e.burst[t] {
			acc.bursts.addDur(st, 1)
		}
		rs.ack.addDur(st, len(e.arriving[t]))
		rs.assign.addDur(st, assigned[t])
		rs.payment.addDur(st, departing[t])
	}
	rs.rounds++
	rs.slots += int64(e.inst.Slots)
	rs.bids += int64(len(e.inst.Bids))
	acc.winners += float64(len(paid))
	acc.paid += out.TotalPayment()
	return nil
}

// measure plays rounds until d of CPU time has been spent in them, or,
// after rewind, exactly the rounds the last measurement played. It holds
// its OS thread, so the thread's CPU clock times its steps.
func (w *engineWorkload) measure(d time.Duration, tr *tracer) (*runStats, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rs := &runStats{}
	var metrics *core.Metrics
	if tr != nil {
		metrics = core.NewMetrics(obs.NewRegistry())
	}
	log := tr.log()
	var acc engineRounds
	replaying := w.replay != nil
	w.played = nil
	for {
		if replaying && len(w.replay) == 0 || !replaying && rs.busy >= d && rs.rounds > 0 {
			break
		}
		e, err := w.nextInput()
		if err != nil {
			return nil, err
		}
		if err := w.measureRound(rs, e, metrics, log, &acc); err != nil {
			return nil, err
		}
	}
	w.replay = nil
	w.countScreened(rs)
	if tr == nil {
		return rs, nil
	}
	n := float64(rs.rounds)
	p := w.layer + "."
	rs.layer = map[string]float64{
		p + "step_p50_us": acc.steps.quantile(0.5),
		p + "step_p99_us": acc.steps.quantile(0.99),
		p + "outcome_ms":  acc.outcomes.quantile(0.5),
	}
	if w.layer == "core" {
		rs.layer["core.step_burst_us"] = acc.bursts.quantile(0.5)
		rs.layer["core.alloc_s_per_round"] = metrics.SlotAllocSeconds.Sum() / n
		rs.layer["core.price_s_per_round"] = metrics.PaymentSeconds.Sum() / n
		rs.layer["core.winners_per_round"] = acc.winners / n
	} else {
		rs.layer["budget.wins_per_round"] = acc.winners / n
		rs.layer["budget.paid_over_budget"] = acc.paid / (n * w.budget)
	}
	rs.info = append(rs.info, fmt.Sprintf("%sstep n=%d, outcome n=%d, burst steps n=%d",
		p, acc.steps.count(), acc.outcomes.count(), acc.bursts.count()))
	return rs, nil
}
