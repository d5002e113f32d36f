package platform

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"dynacrowd/internal/core"
	"dynacrowd/internal/protocol"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialAgent(t *testing.T, addr string) *Agent {
	t.Helper()
	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// waitEvent pulls events until one of the wanted kind arrives, failing
// on timeout or channel close. Other event kinds are collected into
// skipped for callers that care.
func waitEvent(t *testing.T, a *Agent, kind EventKind) Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-a.Events():
			if !ok {
				t.Fatalf("event channel closed while waiting for %v", kind)
			}
			if ev.Kind == EventError {
				t.Fatalf("platform error while waiting for %v: %v", kind, ev.Err)
			}
			if ev.Kind == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %v", kind)
		}
	}
}

func TestListenValidatesConfig(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", Config{Slots: 0, Value: 10}); err == nil {
		t.Fatal("want config error")
	}
}

func TestHelloReportsState(t *testing.T) {
	s := newTestServer(t, Config{Slots: 7, Value: 42})
	a := dialAgent(t, s.Addr())
	st, err := a.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if st.Slots != 7 || st.Value != 42 || st.Slot != 0 {
		t.Fatalf("state = %+v", st)
	}
	if _, err := s.Tick(0); err != nil {
		t.Fatal(err)
	}
	st, err = a.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if st.Slot != 1 {
		t.Fatalf("slot after tick = %d, want 1", st.Slot)
	}
}

// TestSingleAgentRound: one phone, one task; the phone wins, is paid the
// reserve ν (no competition), and sees the full event sequence.
func TestSingleAgentRound(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 10})
	a := dialAgent(t, s.Addr())

	if err := a.SubmitBid("solo", 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil { // slot 1: bid admitted, 1 task
		t.Fatal(err)
	}
	w := waitEvent(t, a, EventWelcome)
	if w.Phone != 0 || w.Slot != 1 || w.Departure != 2 {
		t.Fatalf("welcome = %+v", w)
	}
	asg := waitEvent(t, a, EventAssign)
	if asg.Task != 0 || asg.Slot != 1 {
		t.Fatalf("assign = %+v", asg)
	}
	if _, err := s.Tick(0); err != nil { // slot 2: departure, payment due
		t.Fatal(err)
	}
	pay := waitEvent(t, a, EventPayment)
	if pay.Amount != 10 || pay.Slot != 2 {
		t.Fatalf("payment = %+v (want reserve 10 in slot 2)", pay)
	}
	if _, err := s.Tick(0); err != nil { // slot 3: round ends
		t.Fatal(err)
	}
	end := waitEvent(t, a, EventEnd)
	if end.Welfare != 6 || end.Payments != 10 {
		t.Fatalf("end = %+v", end)
	}
	if !s.Done() {
		t.Fatal("server not done after final slot")
	}
}

// TestCompetitionPayments: two phones in one slot, cheaper wins, paid
// the loser's cost (the critical value).
func TestCompetitionPayments(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 100})
	cheap := dialAgent(t, s.Addr())
	costly := dialAgent(t, s.Addr())

	if err := cheap.SubmitBid("cheap", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := costly.SubmitBid("costly", 1, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	asg := waitEvent(t, cheap, EventAssign)
	pay := waitEvent(t, cheap, EventPayment) // departure slot == win slot
	if asg.Slot != 1 || pay.Amount != 30 {
		t.Fatalf("cheap phone: assign %+v pay %+v, want paid 30", asg, pay)
	}
	// The losing phone sees slot ticks but no assignment.
	waitEvent(t, costly, EventSlot)
	select {
	case ev := <-costly.Events():
		if ev.Kind == EventAssign || ev.Kind == EventPayment {
			t.Fatalf("loser received %v", ev.Kind)
		}
	default:
	}
}

// TestPlatformMatchesBatchMechanism: a scripted multi-agent round ends
// with exactly the outcome the batch online mechanism computes on the
// equivalent instance.
func TestPlatformMatchesBatchMechanism(t *testing.T) {
	s := newTestServer(t, Config{Slots: 5, Value: 20})

	// Mirror the paper's Fig. 4 example: (joinSlot, duration, cost).
	script := []struct {
		join     core.Slot
		duration core.Slot
		cost     float64
	}{
		{2, 4, 3}, {1, 4, 5}, {3, 3, 11}, {4, 2, 9}, {2, 1, 4}, {3, 3, 8}, {1, 3, 6},
	}
	agents := make([]*Agent, len(script))
	for i := range agents {
		agents[i] = dialAgent(t, s.Addr())
	}

	totalPaid := map[int]float64{}
	assigned := map[int]core.Slot{}
	for slot := core.Slot(1); slot <= 5; slot++ {
		for i, sc := range script {
			if sc.join == slot {
				if err := agents[i].SubmitBid("phone", sc.duration, sc.cost); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	// Collect every event until the end marker on each agent.
	for i, a := range agents {
		for ev := range a.Events() {
			switch ev.Kind {
			case EventAssign:
				assigned[i] = ev.Slot
			case EventPayment:
				totalPaid[i] += ev.Amount
			case EventError:
				t.Fatalf("agent %d: %v", i, ev.Err)
			}
			if ev.Kind == EventEnd {
				break
			}
		}
	}

	// Equivalent batch instance and expectations (core tests verify the
	// batch numbers against the paper's walkthrough).
	batchOut, err := (&core.OnlineMechanism{}).Run(s.Instance())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Outcome().Welfare; math.Abs(got-batchOut.Welfare) > 1e-9 {
		t.Fatalf("platform welfare %g != batch %g", got, batchOut.Welfare)
	}
	// Paper walkthrough: winners are phones 2,1,7,6,4 in slots 1..5 and
	// phone 1 (index 0) is paid 9. Note platform IDs are assigned in
	// arrival order, which differs from the script order.
	if assigned[0] != 2 {
		t.Fatalf("phone 1 won in slot %d, want 2", assigned[0])
	}
	if totalPaid[0] != 9 {
		t.Fatalf("phone 1 paid %g, want 9", totalPaid[0])
	}
	var paidSum float64
	for _, v := range totalPaid {
		paidSum += v
	}
	if math.Abs(paidSum-batchOut.TotalPayment()) > 1e-9 {
		t.Fatalf("total notified payments %g != batch %g", paidSum, batchOut.TotalPayment())
	}
}

// TestBidAfterRoundEndRejected: bids after the final slot get an error
// event.
func TestBidAfterRoundEndRejected(t *testing.T) {
	s := newTestServer(t, Config{Slots: 1, Value: 10})
	if _, err := s.Tick(0); err != nil {
		t.Fatal(err)
	}
	a := dialAgent(t, s.Addr())
	err := a.SubmitBid("late", 1, 5)
	if err == nil || !strings.Contains(err.Error(), "complete") {
		t.Fatalf("SubmitBid error = %v, want round-complete error", err)
	}
}

// TestMalformedMessageGetsError: garbage on the wire produces an error
// reply and a closed connection, without disturbing the round.
func TestMalformedMessageGetsError(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 10})
	a := dialAgent(t, s.Addr())
	// Send an unknown type through the raw writer.
	if err := a.send(&protocol.Message{Type: "bogus"}); err == nil {
		// The protocol Writer encodes anything; the server must reject.
		ev := <-a.Events()
		if ev.Kind != EventError {
			t.Fatalf("event = %+v, want error", ev)
		}
	}
	// The round continues unharmed.
	if _, err := s.Tick(0); err != nil {
		t.Fatal(err)
	}
}

// TestDurationClampedToRound: a duration overrunning the round is
// truncated to the last slot.
func TestDurationClampedToRound(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 10})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("long", 99, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(0); err != nil {
		t.Fatal(err)
	}
	w := waitEvent(t, a, EventWelcome)
	if w.Departure != 3 {
		t.Fatalf("departure = %d, want clamped 3", w.Departure)
	}
}

// TestAgentDisconnectDoesNotStallRound: a winner disconnecting before
// its payment slot must not break later ticks.
func TestAgentDisconnectDoesNotStallRound(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 10})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("flaky", 3, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, a, EventAssign)
	a.Close()
	time.Sleep(20 * time.Millisecond)
	for !s.Done() {
		if _, err := s.Tick(0); err != nil {
			t.Fatal(err)
		}
	}
	// The auction still accounts for the winner.
	out := s.Outcome()
	if out.Allocation.NumServed() != 1 {
		t.Fatal("disconnected winner lost its assignment")
	}
}

// TestRunClock drives a tiny round on a fast wall clock.
func TestRunClock(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 10})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("clocked", 3, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.RunClock(5*time.Millisecond, func(core.Slot) int { return 1 }) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunClock did not finish")
	}
	if !s.Done() {
		t.Fatal("round incomplete after RunClock")
	}
	if served := s.Outcome().Allocation.NumServed(); served != 1 {
		t.Fatalf("served %d tasks, want 1 (single phone serves once)", served)
	}
}

// TestCloseIdempotent: closing twice is fine; ticks after close fail.
func TestCloseIdempotent(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 10})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(0); err == nil {
		t.Fatal("tick after close must fail")
	}
}

func TestEventKindString(t *testing.T) {
	for k := EventWelcome; k <= EventError; k++ {
		if strings.Contains(k.String(), "EventKind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if !strings.Contains(EventKind(99).String(), "99") {
		t.Fatal("unknown kind should render its number")
	}
}

// TestSecondBidRejected: the paper's one-bid-per-phone rule is enforced
// per connection.
func TestSecondBidRejected(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 10})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("first", 2, 4); err != nil {
		t.Fatal(err)
	}
	err := a.SubmitBid("second", 2, 3)
	if err == nil || !strings.Contains(err.Error(), "already submitted") {
		t.Fatalf("second bid error = %v", err)
	}
	// The first bid still participates.
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	if s.Outcome().Allocation.NumServed() != 1 {
		t.Fatal("first bid lost")
	}
}

// TestTornWriteThenDisconnect: a client that sends half a JSON line and
// vanishes must not disturb the round or leak its session.
func TestTornWriteThenDisconnect(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 10})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"type":"bi`)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	time.Sleep(20 * time.Millisecond)

	// The round continues and a well-behaved agent is unaffected.
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("fine", 1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	if s.Outcome().Allocation.NumServed() != 1 {
		t.Fatal("round disturbed by torn write")
	}
	if live := s.Stats().LiveConnections; live != 1 {
		t.Fatalf("leaked sessions: %d live", live)
	}
}

// TestGarbageFlood: a client streaming non-JSON noise is cut off after
// its first malformed line and the server stays healthy.
func TestGarbageFlood(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 10})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 50; i++ {
		if _, err := conn.Write([]byte("???? not json ????\n")); err != nil {
			break // server already hung up — that's the point
		}
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := s.Tick(0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ProtocolErrors == 0 {
		t.Fatal("garbage not recorded as a protocol error")
	}
}

// TestBlankLineIsProtocolError: a line of only blanks is a malformed
// message, not a hang-up, so the server replies with an error and
// counts it.
func TestBlankLineIsProtocolError(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 10})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("  \t \n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := protocol.NewReader(conn).Receive()
	if err != nil || m.Type != protocol.TypeError {
		t.Fatalf("reply to a blank line = %+v, %v; want an error message", m, err)
	}
	if got := s.Stats().ProtocolErrors; got != 1 {
		t.Fatalf("ProtocolErrors = %d, want 1", got)
	}
}

// TestAgentBlankLineIsError: an agent that reads a line of only blanks
// from the platform reports an error event instead of a quiet hang-up.
func TestAgentBlankLineIsError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		conn.Write([]byte("  \t \n"))
		accepted <- conn
	}()
	a := dialAgent(t, ln.Addr().String())
	if conn, ok := <-accepted; ok {
		defer conn.Close()
	}
	select {
	case ev, ok := <-a.Events():
		if !ok || ev.Kind != EventError {
			t.Fatalf("event = %+v (channel open %v), want an error event", ev, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the error event")
	}
}
