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
	"log/slog"
	"net"
	"sync"
	"time"

	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
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
	// interval solve of core.OfflineMechanism. The optimum is logged
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

// roundOver reports whether the current round is over: every slot is
// played and, when completions are tracked, every assignment has been
// completed or defaulted. Caller holds s.mu.
func (s *Server) roundOver() bool {
	return s.auction.Done() && len(s.outstanding) == 0
}

// Done reports whether every slot of every configured round has been
// played — and, when a completion deadline is set, every assignment of
// the final round has been completed or defaulted.
func (s *Server) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.roundOver() && s.round >= s.cfg.rounds()
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
