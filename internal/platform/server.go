// Package platform is the networked mobile-crowdsourcing platform of the
// paper's Fig. 1: a TCP server that runs the online truthful auction in
// real time, admitting smartphone agents as they connect, announcing
// sensing tasks slot by slot, and issuing assignments and critical-value
// payments over the wire (see internal/protocol for the message flow).
//
// The slot clock is externally driven through Server.Tick so tests and
// simulations advance deterministically; RunClock provides a wall-clock
// driver for live deployments.
package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/protocol"
)

// Config parameterizes a platform round.
type Config struct {
	// Slots is the round length m.
	Slots core.Slot
	// Value is the platform's per-task value ν.
	Value float64
	// AllocateAtLoss forwards to the auction (see core.Instance).
	AllocateAtLoss bool
	// Rounds is the number of consecutive auction rounds the server
	// plays (the paper's §III-B "round by round" deployment). Values
	// below 1 mean a single round. Each round starts a fresh auction:
	// phone IDs restart, every connection may bid again, and agents are
	// notified with a round message.
	Rounds int
	// Logger receives structured auction events (joins, assignments,
	// payments, protocol errors). Nil disables logging.
	Logger *slog.Logger
	// WriteTimeout bounds each outbound message write to a session; a
	// session missing the deadline is disconnected. Zero means the
	// 5-second default, negative disables the deadline.
	WriteTimeout time.Duration
	// OutboundQueue caps the per-session outbound message queue; a
	// session whose queue overflows is a slow consumer and is
	// disconnected. Zero means the default of 64.
	OutboundQueue int
	// Budget, when non-zero, runs the round under the budget-feasible
	// online mechanism (internal/budget): total payments are guaranteed
	// ≤ Budget, tasks are gated through per-stage posted-price
	// thresholds, and bids arriving after the budget is fully committed
	// are rejected with a typed error. Must be a positive finite number
	// (budget.ErrInvalidBudget otherwise). Incompatible with
	// CompletionDeadline (ErrBudgetIncompatible). The state and end
	// messages carry the budget so agents can see the regime they are
	// bidding into.
	Budget float64
	// BudgetEngine selects the budgeted threshold estimator: "" or
	// "stage" for the OMG-style proportional-share engine, "frugal" for
	// the coverage-quantile engine. Ignored unless Budget is set.
	BudgetEngine string
	// CompletionDeadline enables the unreliable-winner lifecycle (see
	// docs/PLATFORM.md): every winner must report its task done, via a
	// complete message, within this many slots of being assigned. A
	// winner that does not is defaulted — its task is re-allocated in
	// place to the next-cheapest eligible phone, and any payment already
	// issued to it is revoked with a clawback message. A round whose
	// final slot leaves unresolved assignments drains: Tick keeps running
	// (announcing no tasks) until every assignment is completed or
	// defaulted, and only then does the round close. Zero (the default)
	// disables tracking; the disabled path is allocation-free.
	CompletionDeadline core.Slot
	// OfflineBenchmark, when set, solves the offline VCG optimum ω* over
	// each completed round's full bid history with the near-linear
	// interval engine (core.IntervalOffline). The optimum is logged
	// alongside the online welfare — the paper's competitive-ratio
	// check, live — and accumulated in Stats.OfflineOptimum /
	// Stats.OfflineRounds. False (the default) disables the solve
	// entirely.
	OfflineBenchmark bool
	// Obs enables observability: the platform and its auction register
	// metrics in Obs.Registry and emit structured auction events to
	// Obs.Tracer (see docs/OBSERVABILITY.md for the catalog). The
	// server takes ownership: Close flushes the tracer's sinks and
	// stops the introspection HTTP server with a deadline. Nil (the
	// default) disables observability; the no-op paths are
	// allocation-free.
	Obs *obs.Observability
}

func (c Config) rounds() int {
	if c.Rounds < 1 {
		return 1
	}
	return c.Rounds
}

func (c Config) writeTimeout() time.Duration {
	switch {
	case c.WriteTimeout == 0:
		return 5 * time.Second
	case c.WriteTimeout < 0:
		return 0
	default:
		return c.WriteTimeout
	}
}

func (c Config) outboundQueue() int {
	if c.OutboundQueue < 1 {
		return 64
	}
	return c.OutboundQueue
}

// ErrBudgetIncompatible reports a budgeted Config that also sets
// CompletionDeadline: the budgeted auction has no completion lifecycle,
// because the completion lifecycle rewrites the winner set after the
// budget's reserves are committed.
var ErrBudgetIncompatible = errors.New("Budget is incompatible with CompletionDeadline")

// ErrClosed is returned by Tick once the server has been closed.
// RunClock treats it as a clean shutdown rather than a failure. Agent
// messages that arrive after Close are left unanswered.
var ErrClosed = errors.New("platform: server closed")

// Server hosts one auction round over TCP.
type Server struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	auction core.Auction
	// lifecycle is the round's auction when Config.CompletionDeadline is
	// set (only core.OnlineAuction tracks completions); nil otherwise.
	lifecycle *core.OnlineAuction
	round     int                       // current round, 1-based
	phones    map[core.PhoneID]*session // admitted bidders with a live session (current round)
	sessions  map[*session]struct{}     // every live connection
	pending   []pendingBid              // bids awaiting the next tick
	closed    bool

	// fanout holds the same (phone, session) pairs as phones, densely, so
	// a slot broadcast costs one step per attached phone however many
	// have come and gone this round (a map never shrinks, so ranging over
	// phones would not). Each session records where its entries sit
	// (session.phones), and removal swaps the last entry in.
	fanout []fanoutEntry

	// outstanding tracks each unresolved assignment's completion
	// deadline (empty unless Config.CompletionDeadline is set). drain
	// counts the virtual slots ticked past the round's end while
	// assignments from the final slots await resolution.
	outstanding map[core.PhoneID]outstandingTask
	drain       core.Slot

	// counters is the lock-free operational tally behind Stats and the
	// Prometheus bridge; session goroutines and scrapers touch it
	// without holding s.mu.
	counters counters

	metrics     *platformMetrics // nil when Config.Obs is nil
	tracer      *obs.Tracer      // nil when Config.Obs is nil; Emit is nil-safe
	coreMetrics *core.Metrics    // shared across rounds; nil when Config.Obs is nil

	wg sync.WaitGroup
}

// fanoutEntry is one entry of Server.fanout: a phone admitted this round
// and the live session it is attached to.
type fanoutEntry struct {
	phone core.PhoneID
	sess  *session
}

type pendingBid struct {
	name     string
	duration core.Slot
	cost     float64
	sess     *session
}

// outstandingTask is one winner's unresolved assignment: the task it
// holds and the (possibly virtual, during drain) slot at which the
// winner defaults unless it reports completion first.
type outstandingTask struct {
	task     core.TaskID
	slot     core.Slot // slot the task was assigned in
	deadline core.Slot
}

// Listen starts a platform server on addr ("127.0.0.1:0" for an
// ephemeral test port).
func Listen(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return Serve(ln, cfg)
}

// Serve starts a platform server on an existing listener, which the
// server takes ownership of. Injectable listeners are how fault
// harnesses (see internal/chaos) put the platform under unreliable
// transports.
func Serve(ln net.Listener, cfg Config) (*Server, error) {
	return start(ln, cfg, nil)
}

// Resume starts a platform server that continues a round from a
// checkpoint written by Checkpoint. Bids that were pending (received
// but not yet admitted at a slot tick) at checkpoint time are not part
// of the auction state; their agents must resubmit. cfg must agree
// with the checkpoint on the round it fixes; a *CheckpointMismatchError
// names the first field that does not.
func Resume(addr string, cfg Config, checkpoint []byte) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return start(ln, cfg, checkpoint)
}

// start builds a server on ln whose first round is fresh, or restored
// from checkpoint when that is non-nil, and starts accepting agents.
// ln is closed if the round cannot be opened.
func start(ln net.Listener, cfg Config, checkpoint []byte) (*Server, error) {
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		round:    1,
		phones:   make(map[core.PhoneID]*session),
		sessions: make(map[*session]struct{}),
	}
	if s.cfg.Logger == nil {
		s.cfg.Logger = slog.New(discardHandler{})
	}
	if o := cfg.Obs; o != nil {
		s.tracer = o.Tracer
		s.coreMetrics = core.NewMetrics(o.Registry)
	}
	if err := s.openRound(checkpoint); err != nil {
		ln.Close()
		return nil, fmt.Errorf("platform: %w", err)
	}
	s.counters.round.Store(1)
	s.counters.slot.Store(int64(s.auction.Now()))
	if o := cfg.Obs; o != nil {
		s.metrics = newPlatformMetrics(o.Registry, s)
		if s.auction.Now() == 0 {
			s.tracer.Emit(obs.Event{Type: obs.EventRoundOpen, Round: 1, Phone: -1, Task: -1})
		}
	}
	if checkpoint != nil {
		s.tracer.Emit(obs.Event{
			Type: obs.EventRestore, Round: 1, Slot: int(s.auction.Now()),
			Phone: -1, Task: -1, Detail: "resumed from checkpoint",
		})
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

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

// discardHandler is a no-op slog handler (slog.DiscardHandler arrives
// only in Go 1.24's stdlib; this keeps the module at its declared 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

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

	sess.send(&protocol.Message{
		Type:      protocol.TypeWelcome,
		Phone:     id,
		Slot:      bid.Arrival,
		Departure: bid.Departure,
		Round:     s.round,
	})
	out := s.auction.Outcome()
	if s.lifecycle != nil {
		// Lifecycle-aware replay: the tracker knows what was actually
		// executed for this phone, which the allocation alone cannot say
		// once defaults rewrite it.
		st := s.lifecycle.Completion(id)
		switch {
		case st.Status == core.StatusDefaulted:
			// Defaulted while away: the phone learns its payment (amount 0
			// if none had been issued) is revoked.
			sess.send(&protocol.Message{
				Type: protocol.TypeClawback, Phone: id, Amount: st.Paid, Slot: s.auction.Now(),
			})
		case st.Task != core.NoTask:
			sess.send(&protocol.Message{
				Type:  protocol.TypeAssign,
				Phone: id,
				Task:  st.Task,
				Slot:  st.Slot,
			})
			// An executed payment is final — a winner that disconnected
			// after completing but before the payment notice still learns
			// what it is owed. An unissued payment may still move, so it
			// is not replayed.
			if st.PaidAt != 0 {
				sess.send(&protocol.Message{
					Type:   protocol.TypePayment,
					Phone:  id,
					Amount: st.Paid,
					Slot:   st.PaidAt,
				})
			}
		}
	} else if task := out.Allocation.ByPhone[id]; task != core.NoTask {
		sess.send(&protocol.Message{
			Type:  protocol.TypeAssign,
			Phone: id,
			Task:  task,
			Slot:  out.Allocation.WonAt[id],
		})
		// Payments finalize at the reported departure; an undeparted
		// winner's critical value may still move, so only a settled
		// payment is replayed.
		if bid.Departure <= s.auction.Now() {
			sess.send(&protocol.Message{
				Type:   protocol.TypePayment,
				Phone:  id,
				Amount: out.Payments[id],
				Slot:   bid.Departure,
			})
		}
	}
	if s.auction.Done() && len(s.outstanding) == 0 {
		sess.send(&protocol.Message{
			Type:     protocol.TypeEnd,
			Welfare:  out.Welfare,
			Payments: out.TotalPayment(),
			Round:    s.round,
			Budget:   s.cfg.Budget,
		})
	}
}

// Tick advances the round one slot: pending bids are admitted with the
// new slot as their arrival, numTasks tasks are announced and allocated,
// winners receive assignments, and departing winners receive payments.
// It returns the auction's slot result.
func (s *Server) Tick(numTasks int) (*core.SlotResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.lifecycle != nil && s.auction.Done() && len(s.outstanding) > 0 {
		// The round's slots are all played but assignments from its last
		// slots are still unresolved: drain on a virtual clock until every
		// winner has completed or defaulted, then close the round.
		return s.drainTick()
	}
	var tickStart time.Time
	if s.metrics != nil {
		tickStart = time.Now()
	}
	next := s.auction.Now() + 1
	if s.lifecycle != nil {
		s.resolveOverdue(next)
	}

	batch := s.pending
	s.pending = nil
	arriving := make([]core.StreamBid, 0, len(batch))
	admitted := make([]pendingBid, 0, len(batch))
	for _, pb := range batch {
		depart := next + pb.duration - 1
		// The second clause catches integer overflow of an absurd
		// duration wrapping negative (the wire layer bounds durations,
		// but in-process callers get the same safety).
		if depart > s.cfg.Slots || depart < next {
			depart = s.cfg.Slots
		}
		arriving = append(arriving, core.StreamBid{Departure: depart, Cost: pb.cost})
		admitted = append(admitted, pb)
	}

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

	// Bids are read one by one through Bid, never by cloning the
	// instance, so a tick's cost does not grow with the population.
	for k, id := range res.Joined {
		bid, _ := s.auction.Bid(id)
		s.cfg.Logger.Info("phone admitted",
			"phone", int(id), "name", admitted[k].name, "slot", int(res.Slot),
			"departure", int(bid.Departure), "cost", bid.Cost)
		sess := admitted[k].sess
		if _, live := s.sessions[sess]; !live {
			continue // hung up before its bid was admitted
		}
		s.attachPhone(id, sess)
		sess.send(&protocol.Message{
			Type:      protocol.TypeWelcome,
			Phone:     id,
			Slot:      res.Slot,
			Departure: bid.Departure,
			Round:     s.round,
		})
	}
	if len(s.fanout) > 0 {
		// Batched fan-out: the slot notice is encoded once per wire format
		// and the encoded frame is shared by every session (see frame.go) —
		// the per-tick cost is two encodes plus one channel send per phone
		// with a live session, however many have come and gone.
		var fanStart time.Time
		if s.metrics != nil {
			fanStart = time.Now()
		}
		if f := s.newBroadcast(&protocol.Message{Type: protocol.TypeSlot, Slot: res.Slot}); f != nil {
			for _, e := range s.fanout {
				e.sess.sendFrame(f, protocol.TypeSlot)
			}
			f.release()
		}
		if s.metrics != nil {
			s.metrics.observeFanout(time.Since(fanStart))
		}
	}
	var welfare float64
	for _, a := range res.Assignments {
		bid, _ := s.auction.Bid(a.Phone)
		cost := bid.Cost
		welfare += s.cfg.Value - cost
		s.cfg.Logger.Info("task assigned", "task", int(a.Task), "phone", int(a.Phone), "slot", int(a.Slot))
		s.tracer.Emit(obs.Event{
			Type: obs.EventAllocation, Round: s.round, Slot: int(a.Slot),
			Phone: int(a.Phone), Task: int(a.Task),
			Cost: cost, Welfare: s.cfg.Value - cost,
		})
		if sess := s.phones[a.Phone]; sess != nil {
			sess.send(&protocol.Message{
				Type:  protocol.TypeAssign,
				Phone: a.Phone,
				Task:  a.Task,
				Slot:  a.Slot,
			})
		}
	}
	if welfare != 0 {
		c.totalWelfare.Add(welfare)
		s.metrics.addRoundWelfare(welfare)
	}
	if s.lifecycle != nil {
		for _, a := range res.Assignments {
			s.outstanding[a.Phone] = outstandingTask{
				task: a.Task, slot: a.Slot,
				deadline: res.Slot + s.cfg.CompletionDeadline,
			}
		}
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
		s.cfg.Logger.Info("payment issued", "phone", int(p.Phone), "amount", p.Amount, "slot", int(res.Slot))
		s.tracer.Emit(obs.Event{
			Type: obs.EventPayment, Round: s.round, Slot: int(res.Slot),
			Phone: int(p.Phone), Task: -1, Amount: p.Amount,
		})
		if sess := s.phones[p.Phone]; sess != nil {
			sess.send(&protocol.Message{
				Type:   protocol.TypePayment,
				Phone:  p.Phone,
				Amount: p.Amount,
				Slot:   res.Slot,
			})
		}
	}

	if s.auction.Done() && len(s.outstanding) == 0 {
		if err := s.finishRound(res.Slot); err != nil {
			return nil, err
		}
	}
	if s.metrics != nil {
		s.metrics.observeTick(time.Since(tickStart))
	}
	return res, nil
}

// finishRound closes the current round: the summary is logged and
// broadcast, and the next round opens if one is configured. Caller
// holds s.mu and has verified the auction is done with (when tracking)
// no outstanding assignments.
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
	end := &protocol.Message{
		Type:     protocol.TypeEnd,
		Welfare:  out.Welfare,
		Payments: out.TotalPayment(),
		Round:    s.round,
		Budget:   s.cfg.Budget,
	}
	if f := s.newBroadcast(end); f != nil {
		for _, sess := range s.phones {
			sess.sendFrame(f, protocol.TypeEnd)
		}
		f.release()
	}
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

// drainTick plays one virtual slot past the round's end: no bids are
// admitted and no tasks are announced; only completion deadlines
// advance. Caller holds s.mu. See Config.CompletionDeadline.
func (s *Server) drainTick() (*core.SlotResult, error) {
	s.drain++
	s.resolveOverdue(s.auction.Now() + s.drain)
	res := &core.SlotResult{Slot: s.auction.Now()}
	if len(s.outstanding) == 0 {
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
	if len(overdue) == 0 {
		return
	}
	sort.Slice(overdue, func(i, j int) bool { return overdue[i] < overdue[j] })
	c := &s.counters
	for _, id := range overdue {
		dr, err := s.lifecycle.Default(id)
		if err != nil {
			// Unreachable by construction (outstanding only holds live
			// assignments); surface it rather than wedge the round.
			s.cfg.Logger.Error("default failed", "phone", int(id), "err", err.Error())
			delete(s.outstanding, id)
			continue
		}
		delete(s.outstanding, id)
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
		if sess := s.phones[id]; sess != nil {
			sess.send(&protocol.Message{
				Type: protocol.TypeClawback, Phone: id, Amount: dr.Clawback, Slot: dr.Slot,
			})
		}
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
			if sess := s.phones[r]; sess != nil {
				sess.send(&protocol.Message{
					Type: protocol.TypeAssign, Phone: r, Task: dr.Task, Slot: dr.Slot,
				})
			}
		}
		if dw != 0 {
			c.totalWelfare.Add(dw)
			s.metrics.addRoundWelfare(dw)
		}
		for _, p := range dr.Payments {
			c.paymentsIssued.Add(1)
			c.totalPaid.Add(p.Amount)
			s.metrics.addRoundPaid(p.Amount)
			s.cfg.Logger.Info("payment issued", "phone", int(p.Phone), "amount", p.Amount, "slot", now)
			s.tracer.Emit(obs.Event{
				Type: obs.EventPayment, Round: s.round, Slot: now,
				Phone: int(p.Phone), Task: -1, Amount: p.Amount,
			})
			if sess := s.phones[p.Phone]; sess != nil {
				sess.send(&protocol.Message{
					Type: protocol.TypePayment, Phone: p.Phone, Amount: p.Amount, Slot: s.auction.Now(),
				})
			}
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
	if s.auction.Done() && len(s.outstanding) == 0 {
		if err := s.finishRound(s.auction.Now()); err != nil {
			s.cfg.Logger.Error("round close failed", "err", err.Error())
		}
	}
	// Counted last, so a Stats reader that sees this completion also
	// sees the round it closed.
	s.counters.completionsReported.Add(1)
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
	announce := &protocol.Message{Type: protocol.TypeRound, Round: s.round}
	if f := s.newBroadcast(announce); f != nil {
		for sess := range s.sessions {
			sess.sendFrame(f, protocol.TypeRound)
		}
		f.release()
	}
	return nil
}

// newBroadcast encodes m once per wire format into a pooled shared
// frame (see frame.go). A nil return means the message failed to encode
// — impossible for the platform's own well-formed broadcasts, but
// surfaced rather than panicking.
func (s *Server) newBroadcast(m *protocol.Message) *frame {
	f, err := newFrame(m)
	if err != nil {
		s.cfg.Logger.Error("broadcast encode failed", "type", m.Type, "err", err.Error())
		return nil
	}
	return f
}

// Done reports whether every slot of every configured round has been
// played — and, when a completion deadline is set, every assignment of
// the final round has been completed or defaulted.
func (s *Server) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auction.Done() && s.round >= s.cfg.rounds() && len(s.outstanding) == 0
}

// Round returns the current round number (1-based).
func (s *Server) Round() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round
}

// Outcome returns the round outcome so far (see core.OnlineAuction).
func (s *Server) Outcome() *core.Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auction.Outcome()
}

// Instance returns a copy of the accumulated auction instance.
func (s *Server) Instance() *core.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auction.Instance()
}

// RunClock drives the remaining slots on a wall clock, announcing the
// task counts produced by tasksFor(slot) each tick. It blocks until the
// round completes or the server closes; a server closed mid-round is a
// clean shutdown (nil), not an error.
func (s *Server) RunClock(slotEvery time.Duration, tasksFor func(core.Slot) int) error {
	ticker := time.NewTicker(slotEvery)
	defer ticker.Stop()
	for range ticker.C {
		if s.Done() {
			return nil
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil
		}
		draining := s.lifecycle != nil && s.auction.Done()
		next := s.auction.Now() + 1
		s.mu.Unlock()
		n := 0
		if !draining {
			// During drain no tasks are announced, and tasksFor is not
			// consulted (its domain is the round's real slots).
			n = tasksFor(next)
		}
		if _, err := s.Tick(n); err != nil {
			if errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		}
		if s.Done() {
			return nil
		}
	}
	return nil
}

// Close shuts the listener and ends every connection. From Close on,
// agent messages are read but not answered. Each session's writer first
// flushes the messages already queued for it (so a just-ticked
// end-of-round notice still reaches responsive agents), bounded by the
// per-message write deadline; then it half-closes the connection, so
// the agent reads EOF right after the last queued message, and closes
// it once the agent hangs up or closeLinger passes. Safe to call more
// than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	for _, sess := range sessions {
		sess.shutdown()
	}
	s.wg.Wait()
	// With every producer goroutine drained, flush the trace sinks and
	// stop the introspection server (bounded by its shutdown deadline).
	if oerr := s.cfg.Obs.Close(); oerr != nil && err == nil {
		err = oerr
	}
	return err
}
