package platform

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"dynacrowd/internal/core"
	"dynacrowd/internal/protocol"
)

// EventKind discriminates Agent events.
type EventKind int

// Agent event kinds.
const (
	EventWelcome  EventKind = iota + 1 // bid admitted; Phone and Departure set
	EventSlot                          // slot tick; Slot set
	EventAssign                        // won a task; Task and Slot set
	EventPayment                       // paid; Amount and Slot set
	EventEnd                           // round finished; Welfare, Payments, Round set
	EventRound                         // a new round opened; Round set (bid again!)
	EventClawback                      // defaulted; payment revoked; Amount and Slot set
	EventError                         // unsolicited platform error or lost connection; Err set
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventWelcome:
		return "welcome"
	case EventSlot:
		return "slot"
	case EventAssign:
		return "assign"
	case EventPayment:
		return "payment"
	case EventEnd:
		return "end"
	case EventRound:
		return "round"
	case EventClawback:
		return "clawback"
	case EventError:
		return "error"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one platform notification delivered to the agent.
type Event struct {
	Kind      EventKind
	Phone     core.PhoneID
	Slot      core.Slot
	Departure core.Slot
	Task      core.TaskID
	Amount    float64
	Welfare   float64
	Payments  float64
	Round     int
	Err       error
}

// RoundState is the platform's reply to a hello.
type RoundState struct {
	Slot   core.Slot // last processed slot (0 before the first tick)
	Slots  core.Slot // round length m
	Value  float64   // per-task value ν
	Round  int       // current round number (1-based)
	Wire   string    // wire format in effect after this reply ("" means JSON)
	Budget float64   // round budget B (0 means unbudgeted)
}

// ReconnectPolicy configures a resilient agent's automatic reconnect:
// exponential backoff with jitter between dial attempts, resuming the
// agent's admitted phone via the resume{phone} protocol message. The
// zero value of any field takes the documented default.
type ReconnectPolicy struct {
	// MaxAttempts is the number of dial attempts per outage before the
	// agent gives up (default 8).
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 50ms); each retry
	// doubles it up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter (each delay is scaled uniformly into
	// [0.5, 1.5)), so a swarm of reconnecting agents does not stampede
	// in lockstep while tests stay reproducible.
	Seed int64
	// DialTimeout bounds each dial attempt (default 5s). Ignored when
	// Dialer is set.
	DialTimeout time.Duration
	// Dialer overrides how connections are made — e.g. a chaos.Dialer
	// in fault-injection tests. Nil means plain TCP.
	Dialer func(addr string) (net.Conn, error)
}

func (p *ReconnectPolicy) withDefaults() *ReconnectPolicy {
	q := *p
	if q.MaxAttempts < 1 {
		q.MaxAttempts = 8
	}
	if q.BaseDelay <= 0 {
		q.BaseDelay = 50 * time.Millisecond
	}
	if q.MaxDelay <= 0 {
		q.MaxDelay = 2 * time.Second
	}
	if q.DialTimeout <= 0 {
		q.DialTimeout = 5 * time.Second
	}
	return &q
}

func (p *ReconnectPolicy) dial(addr string) (net.Conn, error) {
	if p.Dialer != nil {
		return p.Dialer(addr)
	}
	return net.DialTimeout("tcp", addr, p.DialTimeout)
}

// Agent is a smartphone client of the platform: it submits one bid and
// then consumes platform events until the round ends or the connection
// drops. Events are delivered on the Events channel in wire order; the
// channel closes when the connection ends for good.
//
// An agent dialed with DialResilient additionally survives connection
// loss: once its bid has been admitted (EventWelcome), a dropped
// connection triggers automatic redials with exponential backoff, and
// the new connection re-attaches to the same phone via resume{phone}.
// The platform replays the phone's standing on resume; the agent
// deduplicates the replay, so consumers still see each of welcome,
// assign, payment, and end at most once per round.
type Agent struct {
	addr   string
	policy *ReconnectPolicy // nil: a dropped connection is final
	events chan Event

	mu       sync.Mutex
	conn     net.Conn
	w        *protocol.Writer
	closed   bool
	stateful chan RoundState // pending hello reply
	acks     chan error      // replies to bids and completion reports
	awaiting int             // requests sent and not yet answered

	// Resume and dedup state, touched only by the run goroutine.
	phone    core.PhoneID
	round    int
	welcomed bool
	assigned bool
	paid     bool
	ended    bool
	clawed   bool
	rng      *rand.Rand

	// mu-guarded mirrors of the run goroutine's standing, read by
	// ReportCompletion from the consumer goroutine.
	livePhone core.PhoneID
	liveRound int
	liveTask  core.TaskID // NoTask when holding no unresolved assignment
}

// Dial connects an agent to the platform. The connection is not
// resilient: if it drops, the event channel closes (see DialResilient).
func Dial(addr string) (*Agent, error) {
	return dial(addr, nil)
}

// DialResilient connects an agent that automatically reconnects and
// resumes its phone when the connection drops mid-round.
func DialResilient(addr string, policy ReconnectPolicy) (*Agent, error) {
	return dial(addr, policy.withDefaults())
}

func dial(addr string, policy *ReconnectPolicy) (*Agent, error) {
	var conn net.Conn
	var err error
	if policy != nil {
		conn, err = policy.dial(addr)
	} else {
		conn, err = net.DialTimeout("tcp", addr, 5*time.Second)
	}
	if err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	a := &Agent{
		addr:     addr,
		policy:   policy,
		conn:     conn,
		w:        protocol.NewWriter(conn),
		events:   make(chan Event, 64),
		stateful: make(chan RoundState, 1),
		acks:     make(chan error, 1),
		phone:    core.NoPhone,
		round:    1,

		livePhone: core.NoPhone,
		liveRound: 1,
		liveTask:  core.NoTask,
	}
	if policy != nil {
		a.rng = rand.New(rand.NewSource(policy.Seed))
	}
	go a.run(conn)
	return a, nil
}

// Hello queries the round state (current slot, round length, ν).
func (a *Agent) Hello() (RoundState, error) {
	return a.hello("")
}

// UpgradeBinary negotiates the compact binary wire framing: it sends
// hello{wire:"binary"} and blocks until the platform's state reply
// confirms the switch. Call it first on a fresh connection, before any
// other message — the negotiation contract forbids sending between the
// hello and the state reply. After it returns, all traffic both ways is
// binary-framed. A resilient agent that redials starts the new
// connection back in JSON (resume does not re-negotiate).
func (a *Agent) UpgradeBinary() (RoundState, error) {
	st, err := a.hello(protocol.WireBinary)
	if err != nil {
		return st, err
	}
	if st.Wire != protocol.WireBinary {
		return st, fmt.Errorf("agent: platform kept wire format %q", st.Wire)
	}
	// The read side switched itself when the state reply arrived (see
	// readConn); switching the writer here, after that reply, keeps the
	// negotiation ordering.
	a.mu.Lock()
	a.w.SetFormat(protocol.FormatBinary)
	a.mu.Unlock()
	return st, nil
}

func (a *Agent) hello(wire string) (RoundState, error) {
	if err := a.send(&protocol.Message{Type: protocol.TypeHello, Wire: wire}); err != nil {
		return RoundState{}, err
	}
	select {
	case st, ok := <-a.stateful:
		if !ok {
			return RoundState{}, errors.New("agent: connection closed before state reply")
		}
		return st, nil
	case <-time.After(5 * time.Second):
		return RoundState{}, errors.New("agent: timed out waiting for state")
	}
}

// SubmitBid submits this phone's (single) bid: it stays active for
// duration slots starting at the next slot tick and charges cost per
// task. It blocks until the platform acknowledges queueing the bid, so a
// successful return guarantees the bid joins the next slot; the
// admission confirmation itself arrives later as an EventWelcome.
func (a *Agent) SubmitBid(name string, duration core.Slot, cost float64) error {
	err := a.request(&protocol.Message{
		Type:     protocol.TypeBid,
		Name:     name,
		Duration: duration,
		Cost:     cost,
	})
	if err != nil {
		return err
	}
	select {
	case ackErr, ok := <-a.acks:
		if !ok {
			return errors.New("agent: connection closed before bid ack")
		}
		return ackErr
	case <-time.After(5 * time.Second):
		a.giveUpReply()
		return errors.New("agent: timed out waiting for bid ack")
	}
}

// ReportCompletion tells the platform this phone performed its assigned
// task. Call after an EventAssign, before the platform's completion
// deadline lapses; a winner that never reports is defaulted — its task
// re-allocated and any issued payment revoked (EventClawback). It
// blocks until the platform acknowledges or rejects the report; a
// rejection carries the platform's typed reason (already completed, not
// assigned, tracking disabled).
func (a *Agent) ReportCompletion() error {
	a.mu.Lock()
	phone, task, round := a.livePhone, a.liveTask, a.liveRound
	a.mu.Unlock()
	if phone == core.NoPhone || task == core.NoTask {
		return errors.New("agent: no unresolved assignment to complete")
	}
	err := a.request(&protocol.Message{
		Type:  protocol.TypeComplete,
		Phone: phone,
		Task:  task,
		Round: round,
	})
	if err != nil {
		return err
	}
	select {
	case ackErr, ok := <-a.acks:
		if !ok {
			return errors.New("agent: connection closed before completion ack")
		}
		if ackErr == nil {
			a.mu.Lock()
			a.liveTask = core.NoTask
			a.mu.Unlock()
		}
		return ackErr
	case <-time.After(5 * time.Second):
		a.giveUpReply()
		return errors.New("agent: timed out waiting for completion ack")
	}
}

// Events returns the platform notification stream. The channel closes
// when the connection ends (for a resilient agent: once reconnection is
// exhausted or no longer useful).
func (a *Agent) Events() <-chan Event { return a.events }

// Close tears down the connection; pending events are still drained.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	conn := a.conn
	a.mu.Unlock()
	// The read side closes a connection the platform ended; that is
	// not an error here.
	if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

func (a *Agent) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

func (a *Agent) send(m *protocol.Message) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.w.Send(m)
}

// request sends a message the platform answers with ack or error.
func (a *Agent) request(m *protocol.Message) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.w.Send(m); err != nil {
		return err
	}
	a.awaiting++
	return nil
}

// giveUpReply forgets one request whose reply never came, so that a
// late reply is not mistaken for the answer to the next request.
func (a *Agent) giveUpReply() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.awaiting > 0 {
		a.awaiting--
	}
}

// reply hands an ack (nil) or error reply to the waiting request. It
// reports false when no request is waiting: the reply is unsolicited.
func (a *Agent) reply(err error) bool {
	a.mu.Lock()
	if a.awaiting == 0 {
		a.mu.Unlock()
		return false
	}
	a.awaiting--
	a.mu.Unlock()
	select {
	case a.acks <- err:
	default:
	}
	return true
}

// run owns the agent's read side across the lifetime of possibly many
// connections. It exits — closing the event and reply channels — when a
// connection ends and resuming is impossible (not resilient, closed by
// the user, never admitted, round already over) or reconnection gives
// up.
func (a *Agent) run(conn net.Conn) {
	defer close(a.events)
	defer close(a.stateful)
	defer close(a.acks)
	for {
		err := a.readConn(conn)
		// Hang up at once: the platform ends a session with a half-close
		// and waits for the agent's side to close.
		conn.Close()
		if !a.shouldResume() {
			if err != nil && !a.isClosed() && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				a.events <- Event{Kind: EventError, Err: err}
			}
			return
		}
		next := a.redial()
		if next == nil {
			return
		}
		conn = next
	}
}

// shouldResume reports whether a dropped connection is worth resuming:
// the agent is resilient, still wanted, holds an admitted phone, and
// the round is not over.
func (a *Agent) shouldResume() bool {
	return a.policy != nil && !a.isClosed() && a.welcomed && !a.ended
}

// redial attempts to re-establish the connection with exponential
// backoff and jitter, then re-attaches to the admitted phone with
// resume{phone, round}. It returns nil once attempts are exhausted or
// the agent is closed.
func (a *Agent) redial() net.Conn {
	delay := a.policy.BaseDelay
	for attempt := 1; attempt <= a.policy.MaxAttempts; attempt++ {
		// Jitter: scale into [0.5, 1.5) so reconnecting swarms spread out.
		time.Sleep(delay/2 + time.Duration(a.rng.Int63n(int64(delay))))
		if delay *= 2; delay > a.policy.MaxDelay {
			delay = a.policy.MaxDelay
		}
		if a.isClosed() {
			return nil
		}
		conn, err := a.policy.dial(a.addr)
		if err != nil {
			continue
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return nil
		}
		a.conn = conn
		a.w = protocol.NewWriter(conn)
		err = a.w.Send(&protocol.Message{Type: protocol.TypeResume, Phone: a.phone, Round: a.round})
		a.mu.Unlock()
		if err != nil {
			conn.Close()
			continue
		}
		return conn
	}
	if !a.isClosed() {
		a.events <- Event{
			Kind: EventError,
			Err:  fmt.Errorf("agent: gave up reconnecting after %d attempts", a.policy.MaxAttempts),
		}
	}
	return nil
}

// readConn consumes one connection's messages until it fails, updating
// the resume/dedup state and emitting events. Resume replays are
// deduplicated: each of welcome, assign, payment, clawback, and end
// reaches the consumer at most once per round.
func (a *Agent) readConn(conn net.Conn) error {
	r := protocol.NewReader(conn)
	for {
		m, err := r.Receive()
		if err != nil {
			return err
		}
		switch m.Type {
		case protocol.TypeState:
			if m.Round > 0 {
				a.round = m.Round
			}
			if m.Wire == protocol.WireBinary {
				// Negotiated upgrade confirmed: everything after this state
				// reply arrives binary-framed. The buffered-byte-preserving
				// reader makes the switch safe even if binary frames are
				// already sitting behind the reply.
				r.SetFormat(protocol.FormatBinary)
			}
			select {
			case a.stateful <- RoundState{Slot: m.Slot, Slots: m.Slots, Value: m.Value, Round: m.Round, Wire: m.Wire, Budget: m.Budget}:
			default: // unsolicited state replies are dropped
			}
		case protocol.TypeWelcome:
			first := !a.welcomed
			a.welcomed = true
			a.phone = m.Phone
			if m.Round > 0 {
				a.round = m.Round
			}
			a.mu.Lock()
			a.livePhone = m.Phone
			if m.Round > 0 {
				a.liveRound = m.Round
			}
			a.mu.Unlock()
			if first {
				a.events <- Event{Kind: EventWelcome, Phone: m.Phone, Slot: m.Slot, Departure: m.Departure, Round: m.Round}
			}
		case protocol.TypeSlot:
			a.events <- Event{Kind: EventSlot, Slot: m.Slot}
		case protocol.TypeAssign:
			first := !a.assigned
			a.assigned = true
			a.mu.Lock()
			a.liveTask = m.Task
			a.mu.Unlock()
			if first {
				a.events <- Event{Kind: EventAssign, Phone: m.Phone, Task: m.Task, Slot: m.Slot}
			}
		case protocol.TypePayment:
			first := !a.paid
			a.paid = true
			if first {
				a.events <- Event{Kind: EventPayment, Phone: m.Phone, Amount: m.Amount, Slot: m.Slot}
			}
		case protocol.TypeEnd:
			first := !a.ended
			a.ended = true
			if first {
				a.events <- Event{Kind: EventEnd, Welfare: m.Welfare, Payments: m.Payments, Round: m.Round}
			}
		case protocol.TypeClawback:
			// This phone was defaulted: its payment (possibly zero) is
			// revoked and its assignment is gone.
			first := !a.clawed
			a.clawed = true
			a.mu.Lock()
			a.liveTask = core.NoTask
			a.mu.Unlock()
			if first {
				a.events <- Event{Kind: EventClawback, Phone: m.Phone, Amount: m.Amount, Slot: m.Slot}
			}
		case protocol.TypeRound:
			// A fresh round: phone IDs restarted, the dedup ledger resets,
			// and the agent may bid again.
			a.phone = core.NoPhone
			a.welcomed, a.assigned, a.paid, a.ended, a.clawed = false, false, false, false, false
			a.round = m.Round
			a.mu.Lock()
			a.livePhone, a.liveTask, a.liveRound = core.NoPhone, core.NoTask, m.Round
			a.mu.Unlock()
			a.events <- Event{Kind: EventRound, Round: m.Round}
		case protocol.TypeAck:
			a.reply(nil)
		case protocol.TypeError:
			// An error answering a bid or completion report is that
			// request's result; only an unsolicited one is an event.
			err := errors.New(m.Error)
			if !a.reply(err) {
				a.events <- Event{Kind: EventError, Err: err}
			}
		}
	}
}
