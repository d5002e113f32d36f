package platform

import (
	"errors"
	"fmt"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/protocol"
)

// openRound builds a round's auction, fresh or restored from checkpoint
// when that is non-nil, and installs it. Metrics, departure tracking,
// budget instruments and the completion lifecycle are applied to the
// concrete type here, the one place that knows it. Outstanding
// assignments are rebuilt from the lifecycle: a restored round may
// carry live ones, and each gets a fresh deadline from the restored
// clock. Caller holds s.mu or owns s alone.
func (s *Server) openRound(checkpoint []byte) error {
	c := s.cfg
	auction, err := c.newAuction(checkpoint)
	if err != nil {
		return err
	}
	if c.Obs != nil {
		switch a := auction.(type) {
		case *budget.Auction:
			a.SetMetrics(s.coreMetrics)
			a.TrackDepartures(true)
			a.SetInstruments(budget.NewMetrics(c.Obs.Registry))
			a.SetTracer(s.tracer)
		case *core.OnlineAuction:
			a.SetMetrics(s.coreMetrics)
			a.TrackDepartures(true)
		}
	}
	var lifecycle *core.OnlineAuction
	if c.CompletionDeadline > 0 {
		var ok bool
		if lifecycle, ok = auction.(*core.OnlineAuction); !ok {
			return ErrBudgetIncompatible
		}
		lifecycle.TrackCompletions(true)
	}
	s.auction, s.lifecycle = auction, lifecycle
	s.outstanding, s.drain = nil, 0
	if lifecycle == nil {
		return nil
	}
	s.outstanding = make(map[core.PhoneID]outstandingTask)
	for id := core.PhoneID(0); ; id++ {
		if _, ok := auction.Bid(id); !ok {
			break
		}
		if st := lifecycle.Completion(id); st.Status == core.StatusAssigned {
			s.outstanding[id] = outstandingTask{
				task:     st.Task,
				slot:     st.Slot,
				deadline: auction.Now() + 1 + c.CompletionDeadline,
			}
		}
	}
	return nil
}

// newAuction builds a round's auction of the kind the Config names:
// fresh, or restored from checkpoint when that is non-nil. A restored
// auction must agree with the Config (see CheckpointMismatchError).
func (c Config) newAuction(checkpoint []byte) (core.Auction, error) {
	budgeted := c.Budget != 0
	var eng budget.Engine
	if budgeted {
		if err := budget.ValidateBudget(c.Budget); err != nil {
			return nil, err
		}
		var err error
		if eng, err = budget.EngineByName(c.BudgetEngine); err != nil {
			return nil, err
		}
	}
	switch {
	case checkpoint == nil && budgeted:
		return budget.New(c.Slots, c.Value, c.AllocateAtLoss, c.Budget, eng)
	case checkpoint == nil:
		return core.NewOnlineAuction(c.Slots, c.Value, c.AllocateAtLoss)
	}
	a, err := restore(checkpoint, budgeted)
	if errors.Is(err, core.ErrCheckpointKind) {
		// Restored as its own kind, the checkpoint names the budget it
		// disagrees on.
		a, err = restore(checkpoint, !budgeted)
	}
	if err != nil {
		return nil, err
	}
	in := a.Instance()
	var gotBudget float64
	var gotEngine, wantEngine string
	if b, ok := a.(*budget.Auction); ok {
		gotBudget, gotEngine = b.Budget(), b.Engine().Name()
	}
	if eng != nil {
		wantEngine = eng.Name()
	}
	for _, f := range []CheckpointMismatchError{
		{"Slots", in.Slots, c.Slots},
		{"Value", in.Value, c.Value},
		{"AllocateAtLoss", in.AllocateAtLoss, c.AllocateAtLoss},
		{"Budget", gotBudget, c.Budget},
		{"BudgetEngine", gotEngine, wantEngine},
	} {
		if f.Checkpoint != f.Config {
			return nil, &f
		}
	}
	return a, nil
}

// restore restores a checkpoint as a budgeted or an online auction.
func restore(checkpoint []byte, budgeted bool) (a core.Auction, err error) {
	if budgeted {
		a, err = budget.Restore(checkpoint)
	} else {
		a, err = core.RestoreOnlineAuction(checkpoint)
	}
	return a, err
}

// CheckpointMismatchError rejects resuming a checkpoint under a Config
// it contradicts: the checkpoint fixes the round's Slots, Value,
// AllocateAtLoss, Budget (0 for an unbudgeted round) and BudgetEngine,
// and a different Config value would make the resumed server announce
// or enforce a round other than the one it runs.
type CheckpointMismatchError struct {
	Field      string // the Config field
	Checkpoint any    // the checkpoint's value
	Config     any    // the Config's value
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("checkpoint has %s %v, Config has %v", e.Field, e.Checkpoint, e.Config)
}

// Checkpoint serializes the auction state for Resume. Call between
// ticks; pending (unadmitted) bids are not included. Only the current
// round's auction is captured: a multi-round server resumed from a
// checkpoint restarts its round counter at 1 and finishes the captured
// round plus (Rounds−1) fresh ones.
func (s *Server) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.auction.Snapshot()
	if err == nil {
		s.tracer.Emit(obs.Event{
			Type: obs.EventSnapshot, Round: s.round, Slot: int(s.auction.Now()),
			Phone: -1, Task: -1,
		})
	}
	return b, err
}

// finishRound closes the current round: the summary is logged and
// broadcast, and the next round opens if one is configured. Caller
// holds s.mu and has verified the round is over (see roundOver).
func (s *Server) finishRound(slot core.Slot) error {
	out := s.auction.Outcome()
	s.counters.roundsCompleted.Add(1)
	s.benchmarkRound(out)
	s.cfg.Logger.Info("round complete",
		"round", s.round,
		"welfare", out.Welfare, "totalPaid", out.TotalPayment(),
		"served", out.Allocation.NumServed(), "tasks", len(out.Allocation.ByTask))
	s.tracer.Emit(obs.Event{
		Type: obs.EventRoundClose, Round: s.round, Slot: int(slot),
		Phone: -1, Task: -1,
		Welfare: out.Welfare, Amount: out.TotalPayment(),
	})
	end := s.endNotice(out)
	s.broadcast(&end)
	if s.round < s.cfg.rounds() {
		return s.beginNextRound()
	}
	return nil
}

// benchmarkRound solves the round's offline optimum when
// Config.OfflineBenchmark is set, logging it next to the realized
// online welfare and accumulating the Stats tallies. Caller holds s.mu;
// the solve runs on the round-close path, so it must stay cheap: the
// interval engine is near-linear in the bid count.
func (s *Server) benchmarkRound(out *core.Outcome) {
	if !s.cfg.OfflineBenchmark {
		return
	}
	opt, err := (&core.OfflineMechanism{}).Welfare(s.auction.Instance())
	if err != nil {
		s.cfg.Logger.Warn("offline benchmark failed", "round", s.round, "err", err)
		return
	}
	s.counters.offlineRounds.Add(1)
	s.counters.offlineOptimum.Add(opt)
	ratio := 1.0
	if opt > 0 {
		ratio = out.Welfare / opt
	}
	s.cfg.Logger.Info("offline benchmark",
		"round", s.round, "optimum", opt, "welfare", out.Welfare, "ratio", ratio)
}

// beginNextRound rolls the server onto a fresh auction: phone IDs
// restart, every live connection may bid again, and agents are told the
// new round number. Bids still pending from the final slot of the
// previous round carry over and are admitted at the new round's first
// tick. Caller holds s.mu.
func (s *Server) beginNextRound() error {
	if err := s.openRound(nil); err != nil {
		return fmt.Errorf("platform: next round: %w", err)
	}
	s.round++
	s.counters.round.Store(int64(s.round))
	s.metrics.resetRound()
	s.tracer.Emit(obs.Event{Type: obs.EventRoundOpen, Round: s.round, Phone: -1, Task: -1})
	s.phones = make(map[core.PhoneID]*session)
	clear(s.fanout) // drop the session references
	s.fanout = s.fanout[:0]
	for sess := range s.sessions {
		sess.bid = false // guarded by s.mu, like every sess.bid access
		sess.phones = sess.phones[:0]
	}
	s.cfg.Logger.Info("round opened", "round", s.round, "of", s.cfg.rounds())
	s.broadcast(&protocol.Message{Type: protocol.TypeRound, Round: s.round})
	return nil
}
