package platform

import (
	"fmt"

	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/protocol"
)

// Tick advances the round one slot: pending bids are admitted with the
// new slot as their arrival, numTasks tasks are announced and allocated,
// winners receive assignments, and departing winners receive payments.
// It returns the auction's slot result.
//
// The stages run in this order: resolveOverdue, admit, step, welcome,
// fanOutSlot, notify, then finishRound once the round is over. So a
// phone hears its welcome, then the slot frame, then its assignment,
// then its payment.
func (s *Server) Tick(numTasks int) (*core.SlotResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.auction.Done() && !s.roundOver() {
		return s.drainTick()
	}
	start := s.metrics.start()
	if s.lifecycle != nil {
		s.resolveOverdue(s.auction.Now() + 1)
	}
	batch, arriving := s.admit()
	res, err := s.step(arriving, numTasks)
	if err != nil {
		return nil, err
	}
	s.welcome(res, batch)
	s.fanOutSlot(res.Slot)
	s.notify(res)
	if s.roundOver() {
		if err := s.finishRound(res.Slot); err != nil {
			return nil, err
		}
	}
	s.metrics.observeTick(start)
	return res, nil
}

// admit takes the pending bids and returns them with the stream bids
// they arrive as in the slot about to be played, in the same order.
func (s *Server) admit() ([]pendingBid, []core.StreamBid) {
	batch := s.pending
	s.pending = nil
	next := s.auction.Now() + 1
	arriving := make([]core.StreamBid, 0, len(batch))
	for _, pb := range batch {
		depart := next + pb.duration - 1
		// The second clause catches integer overflow of an absurd
		// duration wrapping negative (the wire layer bounds durations,
		// but in-process callers get the same safety).
		if depart > s.cfg.Slots || depart < next {
			depart = s.cfg.Slots
		}
		arriving = append(arriving, core.StreamBid{Departure: depart, Cost: pb.cost})
	}
	return batch, arriving
}

// step plays the slot in the auction and counts what it did. The slot's
// payments are summed first and added to the totals once.
func (s *Server) step(arriving []core.StreamBid, numTasks int) (*core.SlotResult, error) {
	res, err := s.auction.Step(arriving, numTasks)
	if err != nil {
		// Re-queue nothing: a failed step at this layer is programmer
		// error (negative task count) or a finished round.
		return nil, fmt.Errorf("platform: %w", err)
	}
	c := &s.counters
	c.slot.Store(int64(res.Slot))
	c.tasksAnnounced.Add(int64(numTasks))
	c.tasksServed.Add(int64(len(res.Assignments)))
	c.tasksUnserved.Add(int64(res.Unserved))
	c.paymentsIssued.Add(int64(len(res.Payments)))
	var paid float64
	for _, p := range res.Payments {
		paid += p.Amount
	}
	if paid != 0 {
		c.totalPaid.Add(paid)
		s.metrics.addRoundPaid(paid)
	}
	return res, nil
}

// welcome attaches each phone the slot admitted to the session its bid
// came from, unless that session hung up first, and welcomes it. batch
// is the admitted bids in the order of res.Joined. Bids are read one by
// one through Bid, never by cloning the instance, so a tick's cost does
// not grow with the population.
func (s *Server) welcome(res *core.SlotResult, batch []pendingBid) {
	for k, id := range res.Joined {
		bid, _ := s.auction.Bid(id)
		s.cfg.Logger.Info("phone admitted",
			"phone", int(id), "name", batch[k].name, "slot", int(res.Slot),
			"departure", int(bid.Departure), "cost", bid.Cost)
		sess := batch[k].sess
		if _, live := s.sessions[sess]; !live {
			continue // hung up before its bid was admitted
		}
		s.attachPhone(id, sess)
		s.tell(id, welcomeNotice(id, bid, s.round))
	}
}

// fanOutSlot announces the slot to every phone with a live session.
func (s *Server) fanOutSlot(slot core.Slot) {
	if len(s.fanout) == 0 {
		return
	}
	start := s.metrics.start()
	s.broadcast(&protocol.Message{Type: protocol.TypeSlot, Slot: slot})
	s.metrics.observeFanout(start)
}

// notify reports the slot's decisions. Each assignment is logged,
// traced, put under its completion deadline when completions are
// tracked, and sent to its winner; then departures are traced and
// payments issued. The slot's welfare is summed first and added to the
// totals once.
func (s *Server) notify(res *core.SlotResult) {
	var welfare float64
	for _, a := range res.Assignments {
		bid, _ := s.auction.Bid(a.Phone)
		welfare += s.cfg.Value - bid.Cost
		s.cfg.Logger.Info("task assigned", "task", int(a.Task), "phone", int(a.Phone), "slot", int(a.Slot))
		s.tracer.Emit(obs.Event{
			Type: obs.EventAllocation, Round: s.round, Slot: int(a.Slot),
			Phone: int(a.Phone), Task: int(a.Task),
			Cost: bid.Cost, Welfare: s.cfg.Value - bid.Cost,
		})
		if s.lifecycle != nil {
			s.outstanding[a.Phone] = outstandingTask{
				task: a.Task, slot: a.Slot,
				deadline: res.Slot + s.cfg.CompletionDeadline,
			}
		}
		s.tell(a.Phone, assignNotice(a.Phone, a.Task, a.Slot))
	}
	if welfare != 0 {
		s.counters.totalWelfare.Add(welfare)
		s.metrics.addRoundWelfare(welfare)
	}
	if res.Unserved > 0 {
		s.cfg.Logger.Warn("tasks unserved", "slot", int(res.Slot), "count", res.Unserved)
	}
	for _, p := range res.Departed {
		bid, _ := s.auction.Bid(p)
		s.tracer.Emit(obs.Event{
			Type: obs.EventDeparture, Round: s.round, Slot: int(res.Slot),
			Phone: int(p), Task: -1, Cost: bid.Cost,
		})
	}
	for _, p := range res.Payments {
		s.pay(p, res.Slot)
	}
}

// pay logs, traces and sends a payment issued in slot. The caller counts
// it. Caller holds s.mu.
func (s *Server) pay(p core.PaymentNotice, slot core.Slot) {
	s.cfg.Logger.Info("payment issued", "phone", int(p.Phone), "amount", p.Amount, "slot", int(slot))
	s.tracer.Emit(obs.Event{
		Type: obs.EventPayment, Round: s.round, Slot: int(slot),
		Phone: int(p.Phone), Task: -1, Amount: p.Amount,
	})
	s.tell(p.Phone, paymentNotice(p.Phone, p.Amount, slot))
}

// The notices below tell one phone its standing in the round. Each is
// built here only, whether it is sent live or replayed on resume.

// welcomeNotice admits phone id, whose bid is bid, to round.
func welcomeNotice(id core.PhoneID, bid core.Bid, round int) protocol.Message {
	return protocol.Message{
		Type: protocol.TypeWelcome, Phone: id, Slot: bid.Arrival, Departure: bid.Departure, Round: round,
	}
}

// assignNotice gives phone id task, served in slot.
func assignNotice(id core.PhoneID, task core.TaskID, slot core.Slot) protocol.Message {
	return protocol.Message{Type: protocol.TypeAssign, Phone: id, Task: task, Slot: slot}
}

// paymentNotice pays phone id amount in slot.
func paymentNotice(id core.PhoneID, amount float64, slot core.Slot) protocol.Message {
	return protocol.Message{Type: protocol.TypePayment, Phone: id, Amount: amount, Slot: slot}
}

// clawbackNotice revokes amount from phone id, a defaulted winner.
func clawbackNotice(id core.PhoneID, amount float64, slot core.Slot) protocol.Message {
	return protocol.Message{Type: protocol.TypeClawback, Phone: id, Amount: amount, Slot: slot}
}

// endNotice summarizes the current round from its outcome.
func (s *Server) endNotice(out *core.Outcome) protocol.Message {
	return protocol.Message{
		Type: protocol.TypeEnd, Welfare: out.Welfare, Payments: out.TotalPayment(),
		Round: s.round, Budget: s.cfg.Budget,
	}
}
