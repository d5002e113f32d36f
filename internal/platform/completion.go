package platform

import (
	"fmt"
	"slices"

	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/protocol"
)

// drainTick plays one virtual slot past the round's end. The round's
// slots are all played but assignments from its last slots are still
// unresolved, so it drains on a virtual clock until every winner has
// completed or defaulted, then closes the round: no bids are admitted
// and no tasks are announced; only completion deadlines advance. Caller
// holds s.mu. See Config.CompletionDeadline.
func (s *Server) drainTick() (*core.SlotResult, error) {
	s.drain++
	s.resolveOverdue(s.auction.Now() + s.drain)
	res := &core.SlotResult{Slot: s.auction.Now()}
	if s.roundOver() {
		if err := s.finishRound(s.auction.Now()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resolveOverdue defaults every winner whose completion deadline is at
// or past `next`, the slot about to be played (virtual during drain).
// Each default re-allocates in place: the replacement is notified of
// its assignment and put under its own deadline, the defaulted winner
// receives a clawback notice for whatever it had been paid (amount 0 if
// nothing yet), and a replacement drafted after its own departure is
// paid immediately. Deterministic: overdue winners resolve in phone-ID
// order, so identical histories default identically regardless of map
// iteration. Caller holds s.mu.
func (s *Server) resolveOverdue(next core.Slot) {
	var overdue []core.PhoneID
	for id, o := range s.outstanding {
		if o.deadline <= next {
			overdue = append(overdue, id)
		}
	}
	slices.Sort(overdue)
	c := &s.counters
	for _, id := range overdue {
		dr, err := s.lifecycle.Default(id)
		delete(s.outstanding, id)
		if err != nil {
			// Unreachable by construction (outstanding only holds live
			// assignments); surface it rather than wedge the round.
			s.cfg.Logger.Error("default failed", "phone", int(id), "err", err.Error())
			continue
		}
		defaulted, _ := s.auction.Bid(id)
		now := int(s.auction.Now())
		c.winnersDefaulted.Add(1)
		s.cfg.Logger.Warn("winner defaulted",
			"phone", int(id), "task", int(dr.Task), "slot", int(dr.Slot), "deadline", int(next))
		s.tracer.Emit(obs.Event{
			Type: obs.EventWinnerDefaulted, Round: s.round, Slot: now,
			Phone: int(id), Task: int(dr.Task), Cost: defaulted.Cost,
			Detail: "completion deadline lapsed",
		})
		// The defaulted winner nets zero: revoke whatever it was paid.
		if dr.Clawback > 0 {
			c.clawbacksIssued.Add(1)
			c.clawbackTotal.Add(dr.Clawback)
			s.cfg.Logger.Info("payment clawed back", "phone", int(id), "amount", dr.Clawback)
			s.tracer.Emit(obs.Event{
				Type: obs.EventClawback, Round: s.round, Slot: now,
				Phone: int(id), Task: int(dr.Task), Amount: dr.Clawback,
			})
		}
		s.tell(id, clawbackNotice(id, dr.Clawback, dr.Slot))
		// Keep the cumulative welfare tally aligned with Outcome.Welfare:
		// the defaulted assignment's surplus comes back out, the
		// replacement's goes in.
		dw := -(s.cfg.Value - defaulted.Cost)
		if dr.Replacement == core.NoPhone {
			c.tasksUnreplaced.Add(1)
			s.cfg.Logger.Warn("task unreplaced", "task", int(dr.Task), "slot", int(dr.Slot))
		} else {
			r := dr.Replacement
			replacement, _ := s.auction.Bid(r)
			dw += s.cfg.Value - replacement.Cost
			c.tasksReallocated.Add(1)
			s.outstanding[r] = outstandingTask{
				task: dr.Task, slot: dr.Slot, deadline: next + s.cfg.CompletionDeadline,
			}
			s.cfg.Logger.Info("task re-allocated",
				"task", int(dr.Task), "slot", int(dr.Slot), "from", int(id), "to", int(r))
			s.tracer.Emit(obs.Event{
				Type: obs.EventReallocation, Round: s.round, Slot: now,
				Phone: int(r), Task: int(dr.Task), Cost: replacement.Cost,
			})
			s.tell(r, assignNotice(r, dr.Task, dr.Slot))
		}
		if dw != 0 {
			c.totalWelfare.Add(dw)
			s.metrics.addRoundWelfare(dw)
		}
		for _, p := range dr.Payments {
			c.paymentsIssued.Add(1)
			c.totalPaid.Add(p.Amount)
			s.metrics.addRoundPaid(p.Amount)
			s.pay(p, s.auction.Now())
		}
	}
}

// handleComplete processes a winner's task-done report. A valid report
// settles the assignment (its payment, issued at departure, stands); an
// invalid one is answered with the typed core error without disturbing
// the round.
func (s *Server) handleComplete(m *protocol.Message, sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reject := func(reason string) {
		s.counters.completionsRejected.Add(1)
		sess.send(&protocol.Message{Type: protocol.TypeError, Error: "platform: " + reason})
	}
	if s.closed {
		return
	}
	if s.lifecycle == nil {
		reject(core.ErrNotTracking.Error())
		return
	}
	if m.Round != s.round {
		reject(fmt.Sprintf("complete for round %d, but round %d is live", m.Round, s.round))
		return
	}
	id := m.Phone
	if _, ok := s.auction.Bid(id); !ok {
		reject(fmt.Sprintf("complete for unknown phone %d", id))
		return
	}
	if s.phones[id] != sess {
		reject(fmt.Sprintf("phone %d is not attached to this connection (resume first)", id))
		return
	}
	if st := s.lifecycle.Completion(id); st.Status == core.StatusAssigned && st.Task != m.Task {
		reject(fmt.Sprintf("phone %d holds task %d, not task %d", id, st.Task, m.Task))
		return
	}
	if err := s.lifecycle.Complete(id); err != nil {
		// Typed rejection (ErrAlreadyCompleted / ErrNotAssigned): the
		// agent learns exactly why; the round state is untouched.
		reject(err.Error())
		return
	}
	delete(s.outstanding, id)
	s.cfg.Logger.Info("task completed", "phone", int(id), "task", int(m.Task), "slot", int(s.auction.Now()))
	s.tracer.Emit(obs.Event{
		Type: obs.EventTaskCompleted, Round: s.round, Slot: int(s.auction.Now()),
		Phone: int(id), Task: int(m.Task),
	})
	sess.send(&protocol.Message{Type: protocol.TypeAck})
	if s.roundOver() {
		if err := s.finishRound(s.auction.Now()); err != nil {
			s.cfg.Logger.Error("round close failed", "err", err.Error())
		}
	}
	// Counted last, so a Stats reader that sees this completion also
	// sees the round it closed.
	s.counters.completionsReported.Add(1)
}
