package platform

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/protocol"
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sess := newSession(s, conn)
		if !s.attach(sess) {
			conn.Close()
			continue
		}
		s.wg.Add(2)
		go s.serve(sess)
		go sess.writeLoop()
	}
}

// attach registers a new live session, unless the server is closed.
func (s *Server) attach(sess *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.sessions[sess] = struct{}{}
	s.counters.connections.Add(1)
	s.counters.live.Add(1)
	return true
}

// detach unregisters a torn-down session and stops every send to its
// phones. A phone that a resume has moved to another session is no
// longer among them: handleResume moves its entry.
func (s *Server) detach(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, sess)
	for len(sess.phones) > 0 {
		s.detachPhone(sess, len(sess.phones)-1)
	}
	s.counters.live.Add(-1)
	if sess.binary.Load() {
		s.counters.binarySessions.Add(-1)
	}
}

// attachPhone attaches phone id to the live session sess: direct sends
// find it in phones, slot broadcasts in fanout. The phone must not be
// attached to another session. Caller holds s.mu.
func (s *Server) attachPhone(id core.PhoneID, sess *session) {
	s.phones[id] = sess
	sess.phones = append(sess.phones, len(s.fanout))
	s.fanout = append(s.fanout, fanoutEntry{phone: id, sess: sess})
}

// detachPhone detaches the phone whose entry sess.phones[k] locates,
// swapping the last fanout entry into its place. A session rarely holds
// more than one phone, so finding an entry's record is a short scan.
// Caller holds s.mu.
func (s *Server) detachPhone(sess *session, k int) {
	at, last := sess.phones[k], len(s.fanout)-1
	id := s.fanout[at].phone
	if at != last {
		moved := s.fanout[last]
		s.fanout[at] = moved
		moved.sess.phones[slices.Index(moved.sess.phones, last)] = at
	}
	s.fanout[last] = fanoutEntry{} // drop the session reference
	s.fanout = s.fanout[:last]
	n := len(sess.phones) - 1
	sess.phones[k] = sess.phones[n]
	sess.phones = sess.phones[:n]
	delete(s.phones, id)
}

// tell sends m to phone id's live session, if it has one. The copy of m
// that goes on the queue is made only then, so a notice to a phone that
// hung up allocates nothing. Caller holds s.mu.
func (s *Server) tell(id core.PhoneID, m protocol.Message) {
	if sess := s.phones[id]; sess != nil {
		queued := m
		sess.send(&queued)
	}
}

// broadcast encodes m once per wire format into a shared pooled frame
// (see frame.go) and enqueues the frame to the session of every phone
// attached this round, so a broadcast costs two encodes plus one
// channel send per listening phone however many have come and gone. A
// round announcement goes to every live session instead: a new round
// has no phones yet. A message that fails to encode (impossible for
// the platform's own broadcasts) is logged, not sent. Caller holds s.mu.
func (s *Server) broadcast(m *protocol.Message) {
	f, err := newFrame(m)
	if err != nil {
		s.cfg.Logger.Error("broadcast encode failed", "type", m.Type, "err", err.Error())
		return
	}
	if m.Type == protocol.TypeRound {
		for sess := range s.sessions {
			sess.sendFrame(f, m.Type)
		}
	} else {
		for _, e := range s.fanout {
			e.sess.sendFrame(f, m.Type)
		}
	}
	f.release()
}

// readerPool and writerPool recycle each connection's protocol buffers
// once the connection is torn down.
var (
	readerPool = sync.Pool{New: func() any { return protocol.NewReader(nil) }}
	writerPool = sync.Pool{New: func() any { return protocol.NewWriter(nil) }}
)

// serve handles one agent connection until EOF or protocol error.
func (s *Server) serve(sess *session) {
	defer s.wg.Done()
	defer func() {
		// Detach first, so nothing is sent to the session once its writer
		// starts to wind down. Graceful: let the writer flush any farewell
		// (e.g. the error reply) before the connection is severed.
		s.detach(sess)
		close(sess.readDone)
		sess.shutdown()
	}()
	r := readerPool.Get().(*protocol.Reader)
	r.Reset(sess.conn)
	defer func() {
		r.Reset(nil) // a pooled Reader must not pin the connection
		readerPool.Put(r)
	}()
	var m protocol.Message // reused across receives: steady-state reads allocate nothing
	for {
		err := r.ReceiveInto(&m)
		if err != nil {
			// After Close the read side only waits for the agent to hang
			// up, so its errors (including the hang-up deadline) are not
			// protocol errors.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.isClosed() {
				s.counters.protocolErrors.Add(1)
				s.cfg.Logger.Warn("protocol error", "remote", sess.conn.RemoteAddr().String(), "err", err.Error())
				sess.send(&protocol.Message{Type: protocol.TypeError, Error: err.Error()})
			}
			return
		}
		switch m.Type {
		case protocol.TypeHello:
			s.mu.Lock()
			now, round, closed := s.auction.Now(), s.round, s.closed
			s.mu.Unlock()
			if closed {
				continue
			}
			reply := &protocol.Message{
				Type:   protocol.TypeState,
				Slot:   now,
				Slots:  s.cfg.Slots,
				Value:  s.cfg.Value,
				Round:  round,
				Budget: s.cfg.Budget,
			}
			wire, _ := protocol.FormatByName(m.Wire) // Validate vetted the name
			if wire == protocol.FormatBinary {
				// Negotiated upgrade: the state reply (still JSON) echoes the
				// format and is the last JSON message either way — the writer
				// flips right after sending it, and this reader flips now,
				// because the agent sends nothing between hello and state.
				reply.Wire = protocol.WireBinary
				if sess.binary.CompareAndSwap(false, true) {
					s.counters.binarySessions.Add(1)
				}
				sess.sendUpgrade(reply)
				r.SetFormat(protocol.FormatBinary)
			} else {
				sess.send(reply)
			}
		case protocol.TypeBid:
			switch err := s.enqueueBid(&m, sess); {
			case errors.Is(err, ErrClosed): // unanswered, like everything after Close
			case err != nil:
				sess.send(&protocol.Message{Type: protocol.TypeError, Error: err.Error()})
			default:
				sess.send(&protocol.Message{Type: protocol.TypeAck})
			}
		case protocol.TypeResume:
			s.handleResume(&m, sess)
		case protocol.TypeComplete:
			s.handleComplete(&m, sess)
		default:
			if s.isClosed() {
				continue
			}
			sess.send(&protocol.Message{
				Type:  protocol.TypeError,
				Error: fmt.Sprintf("platform: unexpected message %q from agent", m.Type),
			})
		}
	}
}

func (s *Server) enqueueBid(m *protocol.Message, sess *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	reject := func(reason string) error {
		s.counters.bidsRejected.Add(1)
		s.tracer.Emit(obs.Event{
			Type: obs.EventBidRejected, Round: s.round, Slot: int(s.auction.Now()),
			Phone: -1, Task: -1, Cost: m.Cost, Detail: reason,
		})
		return errors.New("platform: " + reason)
	}
	if s.closed {
		return ErrClosed
	}
	if s.auction.Done() && s.round >= s.cfg.rounds() {
		return reject("round already complete")
	}
	// The paper's model (§III-B): each smartphone submits at most one
	// bid per round.
	if sess.bid {
		return reject("this connection already submitted its bid")
	}
	// A budgeted round whose budget is fully committed can never pay
	// another winner; reject the bid now instead of admitting a phone
	// that is guaranteed to lose.
	if ba, ok := s.auction.(*budget.Auction); ok && ba.BudgetExhausted() {
		return reject(fmt.Sprintf("round budget %g exhausted", s.cfg.Budget))
	}
	sess.bid = true
	s.counters.bidsAccepted.Add(1)
	s.tracer.Emit(obs.Event{
		Type: obs.EventBidAccepted, Round: s.round, Slot: int(s.auction.Now()),
		Phone: -1, Task: -1, Cost: m.Cost, Detail: m.Name,
	})
	s.pending = append(s.pending, pendingBid{
		name:     m.Name,
		duration: m.Duration,
		cost:     m.Cost,
		sess:     sess,
	})
	return nil
}

// handleResume re-attaches a reconnecting agent to its admitted bid and
// replays the phone's standing — its welcome, its assignment and (if
// already departed) its critical-value payment, and the round summary
// if the round is over. The replay is what preserves the mechanism's
// individual-rationality guarantee across a TCP reset: a winner that
// vanished and came back still learns what it is owed. A resume naming
// an earlier (finished) round is answered with round{current}, because
// the phone-ID namespace restarted and the agent must bid afresh.
func (s *Server) handleResume(m *protocol.Message, sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if m.Round != s.round {
		if m.Round < s.round {
			sess.send(&protocol.Message{Type: protocol.TypeRound, Round: s.round})
		} else {
			sess.send(&protocol.Message{
				Type:  protocol.TypeError,
				Error: fmt.Sprintf("platform: resume for round %d, but round %d is live", m.Round, s.round),
			})
		}
		return
	}
	id := m.Phone
	bid, ok := s.auction.Bid(id)
	if !ok {
		s.counters.protocolErrors.Add(1)
		sess.send(&protocol.Message{
			Type:  protocol.TypeError,
			Error: fmt.Sprintf("platform: resume for unknown phone %d", id),
		})
		return
	}
	if old := s.phones[id]; old != sess {
		if old != nil {
			k := slices.IndexFunc(old.phones, func(at int) bool { return s.fanout[at].phone == id })
			s.detachPhone(old, k)
			old.abort() // superseded by the reconnected phone
		}
		s.attachPhone(id, sess)
	}
	sess.bid = true
	s.counters.resumes.Add(1)
	s.cfg.Logger.Info("phone resumed",
		"phone", int(id), "remote", sess.conn.RemoteAddr().String(), "slot", int(s.auction.Now()))

	// From here on s.phones[id] is sess, so tell reaches it.
	s.tell(id, welcomeNotice(id, bid, s.round))
	// The outcome prices every unsettled winner, so it is built only
	// where it is read.
	var out *core.Outcome
	if s.lifecycle != nil {
		// Lifecycle-aware replay: the tracker knows what was actually
		// executed for this phone, which the allocation alone cannot say
		// once defaults rewrite it.
		st := s.lifecycle.Completion(id)
		switch {
		case st.Status == core.StatusDefaulted:
			// Defaulted while away: the phone learns its payment (amount 0
			// if none had been issued) is revoked.
			s.tell(id, clawbackNotice(id, st.Paid, s.auction.Now()))
		case st.Task != core.NoTask:
			s.tell(id, assignNotice(id, st.Task, st.Slot))
			// An executed payment is final — a winner that disconnected
			// after completing but before the payment notice still learns
			// what it is owed. An unissued payment may still move, so it
			// is not replayed.
			if st.PaidAt != 0 {
				s.tell(id, paymentNotice(id, st.Paid, st.PaidAt))
			}
		}
	} else {
		out = s.auction.Outcome()
		if task := out.Allocation.ByPhone[id]; task != core.NoTask {
			s.tell(id, assignNotice(id, task, out.Allocation.WonAt[id]))
			// Payments finalize at the reported departure; an undeparted
			// winner's critical value may still move, so only a settled
			// payment is replayed.
			if bid.Departure <= s.auction.Now() {
				s.tell(id, paymentNotice(id, out.Payments[id], bid.Departure))
			}
		}
	}
	if s.roundOver() {
		if out == nil {
			out = s.auction.Outcome()
		}
		s.tell(id, s.endNotice(out))
	}
}
