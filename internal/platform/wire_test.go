package platform

import (
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dynacrowd/internal/chaos"
	"dynacrowd/internal/core"
	"dynacrowd/internal/protocol"
)

// TestBinaryNegotiationEndToEnd plays a complete round — bid, welcome,
// slot ticks, assignment, payment, end — over the negotiated binary
// framing, through the public Agent API and a real TCP connection.
func TestBinaryNegotiationEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 30})
	a := dialAgent(t, s.Addr())
	st, err := a.UpgradeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if st.Wire != protocol.WireBinary || st.Slots != 3 || st.Value != 30 {
		t.Fatalf("state = %+v", st)
	}
	if got := s.Stats().SessionsBinary; got != 1 {
		t.Fatalf("SessionsBinary = %d, want 1", got)
	}
	if err := a.SubmitBid("bin-phone", 3, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	w := waitEvent(t, a, EventWelcome)
	if w.Phone != 0 || w.Departure != 3 {
		t.Fatalf("welcome = %+v", w)
	}
	as := waitEvent(t, a, EventAssign)
	if as.Task != 0 || as.Slot != 1 {
		t.Fatalf("assign = %+v", as)
	}
	for slot := 2; slot <= 3; slot++ {
		if _, err := s.Tick(0); err != nil {
			t.Fatal(err)
		}
	}
	pay := waitEvent(t, a, EventPayment)
	if pay.Amount != 30 { // sole bidder: critical value is ν
		t.Fatalf("payment = %+v", pay)
	}
	end := waitEvent(t, a, EventEnd)
	if end.Welfare != 20 {
		t.Fatalf("end = %+v", end)
	}
	stats := s.Stats()
	if stats.MessagesSentBinary == 0 {
		t.Fatal("no binary-framed messages were sent")
	}
	// Only the pre-negotiation state reply travels as JSON.
	if stats.MessagesSentJSON != 1 {
		t.Fatalf("MessagesSentJSON = %d, want 1 (the state reply)", stats.MessagesSentJSON)
	}
}

// TestHelloRejectsUnknownWire: an unknown wire name in hello is a
// protocol error, answered and disconnected like any malformed message.
func TestHelloRejectsUnknownWire(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 30})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"type":"hello","wire":"msgpack"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	m, err := protocol.NewReader(conn).Receive()
	if err != nil || m.Type != protocol.TypeError {
		t.Fatalf("want error reply, got %+v, %v", m, err)
	}
}

// rawWireAgent is a protocol-level client for wire tests: no event
// channels, just a reader loop counting what arrives.
type rawWireAgent struct {
	conn  net.Conn
	r     *protocol.Reader
	w     *protocol.Writer
	slots atomic.Int64 // slot notices observed by the drain loop
}

func newRawWireAgent(t testing.TB, ln *chaos.MemListener, wire string) *rawWireAgent {
	t.Helper()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	return handshakeRaw(t, conn, wire)
}

// handshakeRaw says hello over conn, asking for the given wire format.
func handshakeRaw(t testing.TB, conn net.Conn, wire string) *rawWireAgent {
	t.Helper()
	a := &rawWireAgent{conn: conn, r: protocol.NewReader(conn), w: protocol.NewWriter(conn)}
	if err := a.w.Send(&protocol.Message{Type: protocol.TypeHello, Wire: wire}); err != nil {
		t.Fatal(err)
	}
	st, err := a.r.Receive()
	if err != nil || st.Type != protocol.TypeState {
		t.Fatalf("state: %+v, %v", st, err)
	}
	if st.Wire == protocol.WireBinary {
		a.r.SetFormat(protocol.FormatBinary)
		a.w.SetFormat(protocol.FormatBinary)
	}
	return a
}

// bid submits and reads messages until the ack arrives.
func (a *rawWireAgent) bid(t testing.TB, name string, duration core.Slot, cost float64) {
	t.Helper()
	if err := a.w.Send(&protocol.Message{Type: protocol.TypeBid, Name: name, Duration: duration, Cost: cost}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := a.r.Receive()
		if err != nil {
			t.Fatalf("awaiting ack: %v", err)
		}
		if m.Type == protocol.TypeAck {
			return
		}
		if m.Type == protocol.TypeError {
			t.Fatalf("bid rejected: %s", m.Error)
		}
	}
}

// drain consumes messages until the connection dies, tallying slots.
// The loop is allocation-free in binary mode (ReceiveInto).
func (a *rawWireAgent) drain() {
	var m protocol.Message
	for {
		if err := a.r.ReceiveInto(&m); err != nil {
			return
		}
		if m.Type == protocol.TypeSlot {
			a.slots.Add(1)
		}
	}
}

// waitDrained blocks until every queued outbound message has been
// written to the wire (or the deadline passes).
func waitDrained(t testing.TB, s *Server, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		st := s.Stats()
		if st.MessagesSentJSON+st.MessagesSentBinary+st.MessagesDropped >= st.MessagesQueued {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("queues never drained: %+v", st)
		}
		runtime.Gosched()
	}
}

// TestBackpressureUnderBatchedFanout: with shared-frame broadcasts, a
// consumer that stops reading must still trip the bounded-queue
// slow-consumer disconnect, and healthy sessions must keep receiving
// every subsequent slot notice. net.Pipe transport makes the stall
// fully deterministic: there is no kernel buffer for the slow peer to
// hide behind.
func TestBackpressureUnderBatchedFanout(t *testing.T) {
	ln := chaos.NewMemListener(8)
	s, err := Serve(ln, Config{
		Slots: 500, Value: 30,
		OutboundQueue: 4,
		WriteTimeout:  -1, // queue overflow, not a write deadline, is the trip wire
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	healthy := newRawWireAgent(t, ln, protocol.WireBinary)
	defer healthy.conn.Close()
	slow := newRawWireAgent(t, ln, protocol.WireJSON)
	defer slow.conn.Close()
	healthy.bid(t, "healthy", 500, 10)
	slow.bid(t, "slow", 500, 11)

	if _, err := s.Tick(0); err != nil { // admit both
		t.Fatal(err)
	}
	go healthy.drain()
	// The slow consumer reads its welcome and then goes silent.
	for {
		m, err := slow.r.Receive()
		if err != nil {
			t.Fatalf("slow agent welcome: %v", err)
		}
		if m.Type == protocol.TypeWelcome {
			break
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().SlowConsumers == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow consumer never tripped: %+v", s.Stats())
		}
		// Pace on the healthy agent's receipts: each tick's notice must
		// reach it before the next tick fires, so its bounded queue can
		// never overflow merely because the scheduler starved its drain
		// goroutine. The stalled session reads nothing, so its queue
		// fills at full tick rate regardless.
		h0 := healthy.slots.Load()
		if _, err := s.Tick(0); err != nil {
			t.Fatal(err)
		}
		for healthy.slots.Load() == h0 && s.Stats().SlowConsumers == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("healthy agent never saw its slot notice: %+v", s.Stats())
			}
			runtime.Gosched()
		}
	}
	st := s.Stats()
	if st.SlowConsumers != 1 || st.MessagesDropped == 0 {
		t.Fatalf("stats after stall: %+v", st)
	}

	// The healthy session keeps receiving: five more ticks must all
	// reach it even though the slow session is (or is being) torn down.
	// Paced like above — each notice must land before the next tick, so
	// a scheduling stall cannot overflow the 4-deep queue by itself.
	before := healthy.slots.Load()
	waitForSlots := time.Now().Add(10 * time.Second)
	for i := int64(1); i <= 5; i++ {
		if _, err := s.Tick(0); err != nil {
			t.Fatal(err)
		}
		for healthy.slots.Load() < before+i {
			if time.Now().After(waitForSlots) {
				t.Fatalf("healthy session stalled: saw %d slots, want >= %d", healthy.slots.Load(), before+i)
			}
			runtime.Gosched()
		}
	}
}

// TestSteadyStateFanoutAllocFree pins the tentpole's allocation claim:
// with an idle auction (no joins, tasks, or departures), broadcasting a
// slot tick to a connected binary swarm allocates nothing per message —
// the shared frame is pooled, the outbound queue carries structs, the
// writers reuse their buffers, and the agents' ReceiveInto loops are
// allocation-free. The only allocations left are the fixed per-tick
// bookkeeping, which this test amortizes over population × ticks.
func TestSteadyStateFanoutAllocFree(t *testing.T) {
	const agents = 192
	const ticks = 40
	ln := chaos.NewMemListener(agents)
	s, err := Serve(ln, Config{
		Slots: 10_000, Value: 30,
		OutboundQueue: ticks + 8, // no overflow even if drains lag a whole run
		WriteTimeout:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	swarm := make([]*rawWireAgent, agents)
	for i := range swarm {
		swarm[i] = newRawWireAgent(t, ln, protocol.WireBinary)
		defer swarm[i].conn.Close()
		swarm[i].bid(t, "p", 10_000, 10)
	}
	if _, err := s.Tick(0); err != nil { // admit the swarm
		t.Fatal(err)
	}
	for _, a := range swarm {
		go a.drain()
	}
	waitDrained(t, s, 10*time.Second)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		if _, err := s.Tick(0); err != nil {
			t.Fatal(err)
		}
		waitDrained(t, s, 10*time.Second)
	}
	runtime.ReadMemStats(&after)

	msgs := float64(agents) * float64(ticks)
	perMsg := float64(after.Mallocs-before.Mallocs) / msgs
	t.Logf("steady-state fan-out: %.4f allocs/msg over %d msgs", perMsg, int(msgs))
	// The budget is deliberately tight: per-message cost must be zero,
	// with only the fixed per-tick auction bookkeeping (amortized to
	// ~0.1/msg at this population) allowed through.
	if perMsg >= 0.5 {
		t.Fatalf("steady-state fan-out allocates %.3f/msg, want < 0.5", perMsg)
	}
}

// BenchmarkTickFanout measures delivered broadcast throughput — tick,
// then wait until every session's writer has the slot notice on the
// wire — for both framings at a fixed population.
func BenchmarkTickFanout(b *testing.B) {
	for _, wire := range []string{protocol.WireJSON, protocol.WireBinary} {
		b.Run(wire, func(b *testing.B) {
			const agents = 512
			ln := chaos.NewMemListener(agents)
			s, err := Serve(ln, Config{
				Slots: core.Slot(b.N + 10_000), Value: 30,
				OutboundQueue: 64,
				WriteTimeout:  -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			swarm := make([]*rawWireAgent, agents)
			for i := range swarm {
				swarm[i] = newRawWireAgent(b, ln, wire)
				defer swarm[i].conn.Close()
				swarm[i].bid(b, "p", core.Slot(b.N+10_000), 10)
			}
			if _, err := s.Tick(0); err != nil {
				b.Fatal(err)
			}
			for _, a := range swarm {
				go a.drain()
			}
			waitDrained(b, s, 30*time.Second)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := s.Tick(0); err != nil {
					b.Fatal(err)
				}
				waitDrained(b, s, 30*time.Second)
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(agents)*float64(b.N)/elapsed, "msgs/s")
			}
		})
	}
}

// TestMemListener covers the in-memory listener used by the wire tests
// and the load harness.
func TestMemListener(t *testing.T) {
	ln := chaos.NewMemListener(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(c, c) // echo
		c.Close()
	}()
	c, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo: %q, %v", buf, err)
	}
	if c.LocalAddr().String() == c.RemoteAddr().String() {
		t.Fatalf("addresses not distinguishable: %v", c.LocalAddr())
	}
	c.Close()
	<-done
	ln.Close()
	if _, err := ln.Dial(); err == nil {
		t.Fatal("dial after close must fail")
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("accept after close must fail")
	}
}
