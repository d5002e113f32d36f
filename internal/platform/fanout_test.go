package platform

import (
	"net"
	"runtime"
	"testing"
	"time"

	"dynacrowd/internal/core"
	"dynacrowd/internal/protocol"
)

// Slot frames go to a phone admitted this round while its session is
// live: these tests pin who receives them across hang-ups, resumes and
// round changes. Each tick's enqueue attempts (messages queued plus
// dropped) count exactly who the server still sends to, so no test
// needs to wait for a frame that should not come.

// enqueued returns the server's enqueue attempts so far.
func enqueued(s *Server) int64 {
	st := s.Stats()
	return st.MessagesQueued + st.MessagesDropped
}

// settle waits until every message the server queued has been written.
// A session's reader can receive a message before the goroutine that
// queued it has counted it, so without this a count could land inside
// the next tick's window.
func settle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.MessagesQueued == st.MessagesSentJSON+st.MessagesSentBinary {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued messages never all written: %+v", st)
		}
		runtime.Gosched()
	}
}

// tickSends ticks once and fails unless the tick made exactly want
// enqueue attempts.
func tickSends(t *testing.T, s *Server, numTasks int, want int64) {
	t.Helper()
	settle(t, s)
	before := enqueued(s)
	res, err := s.Tick(numTasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := enqueued(s) - before; got != want {
		t.Fatalf("slot %d enqueued %d messages, want %d", res.Slot, got, want)
	}
}

// waitLive blocks until the server counts n live sessions, so a hang-up
// has been fully torn down before the next tick.
func waitLive(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().LiveConnections != n {
		if time.Now().After(deadline) {
			t.Fatalf("live sessions stuck at %d, want %d", s.Stats().LiveConnections, n)
		}
		runtime.Gosched()
	}
}

// await reads until a message of type want arrives; a read failure, a
// 10-second wait or an error message fails the test.
func (a *rawWireAgent) await(t *testing.T, want string) *protocol.Message {
	t.Helper()
	a.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		m, err := a.r.Receive()
		if err != nil {
			t.Fatalf("awaiting %s: %v", want, err)
		}
		if m.Type == protocol.TypeError {
			t.Fatalf("awaiting %s: platform error %q", want, m.Error)
		}
		if m.Type == want {
			return m
		}
	}
}

// resume re-attaches a to phone id of round 1 and reads the replay up to
// the assignment.
func (a *rawWireAgent) resume(t *testing.T, id core.PhoneID) {
	t.Helper()
	if err := a.w.Send(&protocol.Message{Type: protocol.TypeResume, Phone: id, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if w := a.await(t, protocol.TypeWelcome); w.Phone != id {
		t.Fatalf("resume welcomed phone %d, want %d", w.Phone, id)
	}
	a.await(t, protocol.TypeAssign)
}

// dialRaw connects a raw agent to s over TCP loopback and says hello in
// the given wire format.
func dialRaw(t *testing.T, s *Server, wire string) *rawWireAgent {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return handshakeRaw(t, conn, wire)
}

// TestHungUpPhoneGetsNoSlotFrames: a churned round in which each slot
// admits a phone that wins, is paid, and hangs up a slot later, after
// the next one is admitted. No tick sends to a phone that hung up, so
// every tick makes the same enqueue attempts and nothing is dropped,
// while the phone that stays hears every slot. Each hang-up leaves a hole
// mid-list that the newest phone's entry moves into.
func TestHungUpPhoneGetsNoSlotFrames(t *testing.T) {
	const churners = 6
	s := newTestServer(t, Config{Slots: churners + 3, Value: 10})
	stayer := dialRaw(t, s, protocol.WireBinary)
	stayer.bid(t, "stayer", churners+3, 9)
	tickSends(t, s, 0, 2) // the stayer's welcome and slot
	go stayer.drain()

	var prev *rawWireAgent
	for k := 0; k < churners; k++ {
		wire := []string{protocol.WireJSON, protocol.WireBinary}[k%2]
		c := dialRaw(t, s, wire)
		c.bid(t, "churner", 1, 1)
		// The churner's welcome, assignment and payment (it wins the
		// slot's task and departs in it), and slot frames to the stayer,
		// the churner and the previous churner, which departed but has
		// not hung up yet.
		want := int64(5)
		if prev != nil {
			want++
		}
		tickSends(t, s, 1, want)
		c.await(t, protocol.TypePayment)
		if prev != nil {
			prev.await(t, protocol.TypeSlot)
			prev.conn.Close()
			waitLive(t, s, 2)
		}
		prev = c
	}
	prev.conn.Close()
	waitLive(t, s, 1)
	// A phone that hangs up before its bid is admitted is admitted all
	// the same, but never attached: the tick sends only the stayer's slot.
	quitter := dialRaw(t, s, protocol.WireJSON)
	quitter.bid(t, "quitter", 1, 1)
	quitter.conn.Close()
	waitLive(t, s, 1)
	tickSends(t, s, 0, 1)
	if st := s.Stats(); st.MessagesDropped != 0 {
		t.Fatalf("%d messages dropped over the churned round, want 0", st.MessagesDropped)
	}
	deadline := time.Now().Add(10 * time.Second)
	for stayer.slots.Load() != churners+2 {
		if time.Now().After(deadline) {
			t.Fatalf("stayer heard %d slot frames, want %d", stayer.slots.Load(), churners+2)
		}
		runtime.Gosched()
	}
}

// TestResumedPhoneGetsSlotFramesAgain: a winner that hangs up hears no
// slot frames while away; once it resumes on a new connection it hears
// them again, and its payment or clawback arrives live.
func TestResumedPhoneGetsSlotFramesAgain(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline core.Slot
		// The resumed phone's third slot: its payment at departure, or
		// the clawback when its completion deadline lapses first.
		third []string
	}{
		{"payment", 0, []string{protocol.TypeSlot, protocol.TypePayment}},
		{"clawback", 2, []string{protocol.TypeClawback, protocol.TypeSlot}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{Slots: 6, Value: 10, CompletionDeadline: tc.deadline})
			a := dialRaw(t, s, protocol.WireJSON)
			a.bid(t, "winner", 3, 2)
			tickSends(t, s, 1, 3) // welcome, slot, assignment
			a.await(t, protocol.TypeAssign)
			a.conn.Close()
			waitLive(t, s, 0)
			tickSends(t, s, 0, 0) // away: nothing is sent to it

			b := dialRaw(t, s, protocol.WireJSON)
			b.resume(t, 0)
			tickSends(t, s, 0, int64(len(tc.third)))
			for _, typ := range tc.third {
				if m := b.await(t, typ); m.Phone != 0 && typ != protocol.TypeSlot {
					t.Fatalf("%s names phone %d, want 0", typ, m.Phone)
				}
			}
			if st := s.Stats(); st.MessagesDropped != 0 {
				t.Fatalf("%d messages dropped, want 0", st.MessagesDropped)
			}
		})
	}
}

// TestSupersededSessionKeepsResumedPhone: when a resume moves a phone to
// a new connection, the old session's teardown leaves the phone attached
// to the new one, which keeps hearing slot frames and gets the payment.
func TestSupersededSessionKeepsResumedPhone(t *testing.T) {
	s := newTestServer(t, Config{Slots: 5, Value: 10})
	old := dialRaw(t, s, protocol.WireJSON)
	old.bid(t, "phone", 3, 2)
	tickSends(t, s, 1, 3)
	old.await(t, protocol.TypeAssign)

	b := dialRaw(t, s, protocol.WireBinary)
	b.resume(t, 0)
	waitLive(t, s, 1) // the superseded session has detached

	tickSends(t, s, 0, 1)
	b.await(t, protocol.TypeSlot)
	tickSends(t, s, 0, 2) // departure: slot frame and payment
	b.await(t, protocol.TypeSlot)
	if pay := b.await(t, protocol.TypePayment); pay.Amount != 10 {
		t.Fatalf("payment %g, want the reserve 10", pay.Amount)
	}
	if st := s.Stats(); st.MessagesDropped != 0 {
		t.Fatalf("%d messages dropped, want 0", st.MessagesDropped)
	}
}

// TestNextRoundClearsSessionIndex: phone IDs restart each round, so a
// session's phones from the last round must not survive the round
// change. Phone 0 of round 1 stays connected without bidding again and
// hears nothing of round 2; when it hangs up, round 2's phone 0 (another
// connection) keeps hearing its slot frames.
func TestNextRoundClearsSessionIndex(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 10, Rounds: 2})
	a := dialRaw(t, s, protocol.WireJSON)
	b := dialRaw(t, s, protocol.WireBinary)
	a.bid(t, "a", 2, 2) // round 1: a is phone 0, b phone 1
	b.bid(t, "b", 2, 3)
	tickSends(t, s, 0, 4)
	// The round ends: slot frames, the end summary and the round-2
	// announcement to each.
	tickSends(t, s, 0, 6)
	a.await(t, protocol.TypeRound)
	b.await(t, protocol.TypeRound)

	b.bid(t, "b", 2, 3) // round 2: b is phone 0
	tickSends(t, s, 0, 2)
	if w := b.await(t, protocol.TypeWelcome); w.Phone != 0 || w.Round != 2 {
		t.Fatalf("round 2 welcome = %+v, want phone 0 of round 2", w)
	}
	a.conn.Close()
	waitLive(t, s, 1)
	tickSends(t, s, 0, 2) // b's slot frame and the end summary
	b.await(t, protocol.TypeSlot)
	b.await(t, protocol.TypeSlot)
	b.await(t, protocol.TypeEnd)
	if st := s.Stats(); st.MessagesDropped != 0 {
		t.Fatalf("%d messages dropped, want 0", st.MessagesDropped)
	}
}
