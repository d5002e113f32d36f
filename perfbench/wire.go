package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"dynacrowd/internal/core"
	"dynacrowd/internal/platform"
	"dynacrowd/internal/protocol"
	"dynacrowd/internal/workload"
)

// wire-churn: a real platform.Serve on a TCP loopback listener, driven as
// a closed loop by one client per CPU over one long round. The harness is
// the slot clock: it ticks as soon as every client has decoded the
// previous tick's frames and the phones due to arrive have been acked.
// Each client plays a stream of phones, one at a time: dial, hello (JSON
// or binary), bid, ack, stay connected through the departure slot, then
// half-close and read to EOF.
const (
	wireSlots     = 4000
	wireTinySlots = 60
	wireValue     = 30.0
	wireMeanCost  = 25.0
	wireMaxWindow = 3
	// wireTimeout bounds every dial, read and write of a client; a phone
	// that waits longer has lost a frame and fails.
	wireTimeout = 5 * time.Second
)

// phonePlan is one generated phone and what the reference replay says
// must happen to it.
type phonePlan struct {
	name      string
	arrival   core.Slot
	departure core.Slot
	duration  core.Slot
	cost      float64
	binary    bool

	task  core.TaskID // core.NoTask: the phone loses
	wonAt core.Slot
	pay   float64
}

// wirePlan is the generated round: each client's phones, tiling slots
// 1..slots back to back, and the tasks announced per slot.
type wirePlan struct {
	slots   core.Slot
	tasks   []int          // index t = 1..slots
	clients [][]*phonePlan // per client, in arrival order
	phones  int
	ref     *core.Outcome // reference outcome, welfare compared bit for bit
}

type bidKey struct {
	arrival core.Slot
	cost    float64
}

func newWirePlan(seed uint64, clients int, slots core.Slot) (*wirePlan, error) {
	rng := workload.NewRNG(seed)
	p := &wirePlan{slots: slots, tasks: make([]int, slots+1), clients: make([][]*phonePlan, clients)}
	seen := make(map[float64]bool)
	for c := 0; c < clients; c++ {
		for t := core.Slot(1); t <= slots; {
			dur := core.Slot(rng.UniformInt(1, wireMaxWindow))
			dep := min(t+dur-1, slots)
			// Distinct costs make the outcome independent of the order in
			// which same-slot bids reach the server.
			cost := rng.Uniform(0, 2*wireMeanCost)
			for seen[cost] {
				cost = rng.Uniform(0, 2*wireMeanCost)
			}
			seen[cost] = true
			p.clients[c] = append(p.clients[c], &phonePlan{
				name: fmt.Sprintf("c%d-p%d", c, len(p.clients[c])), arrival: t, departure: dep,
				duration: dur, cost: cost, binary: rng.Float64() < 0.5, task: core.NoTask,
			})
			p.phones++
			t = dep + 1
		}
	}
	for t := core.Slot(1); t <= slots; t++ {
		p.tasks[t] = rng.Poisson(float64(clients) / 2)
	}
	return p, p.replay()
}

// replay runs the schedule through core.OnlineAuction and records each
// phone's expected assignment and payment.
func (p *wirePlan) replay() error {
	oa, err := core.NewOnlineAuction(p.slots, wireValue, false)
	if err != nil {
		return err
	}
	byArrival := make([][]*phonePlan, p.slots+1)
	for _, phones := range p.clients {
		for _, ph := range phones {
			byArrival[ph.arrival] = append(byArrival[ph.arrival], ph)
		}
	}
	var byID []*phonePlan
	for t := core.Slot(1); t <= p.slots; t++ {
		arriving := make([]core.StreamBid, len(byArrival[t]))
		for k, ph := range byArrival[t] {
			arriving[k] = core.StreamBid{Departure: ph.departure, Cost: ph.cost}
		}
		res, err := oa.Step(arriving, p.tasks[t])
		if err != nil {
			return fmt.Errorf("reference slot %d: %w", t, err)
		}
		byID = append(byID, byArrival[t]...)
		for _, a := range res.Assignments {
			byID[a.Phone].task, byID[a.Phone].wonAt = a.Task, a.Slot
		}
		for _, pay := range res.Payments {
			byID[pay.Phone].pay = pay.Amount
		}
	}
	p.ref = oa.Outcome()
	return nil
}

type wireChurn struct {
	plan *wirePlan
	srv  *platform.Server // started for the next round
}

func newWireChurn(seed uint64, tiny bool, clients int) (*wireChurn, error) {
	slots := core.Slot(wireSlots)
	if tiny {
		slots = wireTinySlots
	}
	plan, err := newWirePlan(seed, clients, slots)
	if err != nil {
		return nil, err
	}
	w := &wireChurn{plan: plan}
	if err := w.start(); err != nil {
		return nil, err
	}
	// Warm-up round, checked like every measured one.
	warm := &runStats{}
	if err := w.playRound(warm, nil, &wireLayer{}); err != nil {
		w.close()
		return nil, err
	}
	if warm.failed > 0 {
		w.close()
		return nil, fmt.Errorf("warm-up round failed: %v", warm.failures)
	}
	return w, nil
}

func (w *wireChurn) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv, err := platform.Serve(ln, platform.Config{Slots: w.plan.slots, Value: wireValue})
	if err != nil {
		return err
	}
	w.srv = srv
	return nil
}

// rewind does nothing: every round plays the same plan, so every
// measurement already times the same input.
func (w *wireChurn) rewind() {}

func (w *wireChurn) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

// wireLayer gathers the per-layer numbers of a run's rounds.
type wireLayer struct {
	tick, tickFirst, tickLast samples
	deliver, connect          samples
	send                      [2]samples // by protocol.Format
	frames, bytes, phones     [2]int64   // by protocol.Format
	useful                    int64      // frames the agents needed and decoded
	queued, dropped           int64
}

// add gathers one round's per-layer numbers.
func (lay *wireLayer) add(clients []*wireClient, tickStart, tickEnd []time.Time) {
	for _, c := range clients {
		lay.deliver.merge(&c.deliver)
		lay.connect.merge(&c.connected)
		for f := range lay.send {
			lay.send[f].merge(&c.send[f])
			lay.frames[f] += c.frames[f]
			lay.bytes[f] += c.bytes[f]
			lay.phones[f] += c.phones[f]
		}
		lay.useful += c.useful
	}
	slots := core.Slot(len(tickStart) - 1)
	for t := core.Slot(1); t <= slots; t++ {
		d := tickEnd[t].Sub(tickStart[t])
		lay.tick.addDur(d, 1)
		if t <= slots/10 {
			lay.tickFirst.addDur(d, 1)
		} else if t > slots-slots/10 {
			lay.tickLast.addDur(d, 1)
		}
	}
}

func (w *wireChurn) measure(d time.Duration, tr *tracer) (*runStats, error) {
	rs := &runStats{}
	var lay wireLayer
	for rs.busy < d || rs.rounds == 0 {
		if err := w.playRound(rs, tr, &lay); err != nil {
			return nil, err
		}
	}
	if tr == nil {
		return rs, nil
	}
	slots := float64(rs.slots)
	rs.layer = map[string]float64{
		"platform.tick_p50_us":           lay.tick.quantile(0.5),
		"platform.tick_p99_us":           lay.tick.quantile(0.99),
		"platform.tick_first_decile_us":  lay.tickFirst.quantile(0.5),
		"platform.tick_last_decile_us":   lay.tickLast.quantile(0.5),
		"platform.deliver_p50_us":        lay.deliver.quantile(0.5),
		"platform.deliver_p99_us":        lay.deliver.quantile(0.99),
		"platform.connect_us":            lay.connect.quantile(0.5),
		"platform.msgs_queued_per_slot":  float64(lay.queued) / slots,
		"platform.msgs_dropped_per_slot": float64(lay.dropped) / slots,
		"platform.fanout_useful_ratio":   ratio(float64(lay.useful), float64(lay.queued+lay.dropped)),
		"platform.alloc_bytes_per_slot":  float64(rs.allocBytes) / slots,
	}
	for f, name := range map[protocol.Format]string{protocol.FormatJSON: "json", protocol.FormatBinary: "binary"} {
		rs.layer["protocol."+name+".send_us"] = lay.send[f].quantile(0.5)
		rs.layer["protocol."+name+".frames_per_phone"] = ratio(float64(lay.frames[f]), float64(lay.phones[f]))
		rs.layer["protocol."+name+".bytes_per_phone"] = ratio(float64(lay.bytes[f]), float64(lay.phones[f]))
	}
	rs.info = append(rs.info, fmt.Sprintf("tick n=%d, deliver n=%d, connect n=%d, send n=%d/%d (json/binary)",
		lay.tick.count(), lay.deliver.count(), lay.connect.count(), lay.send[0].count(), lay.send[1].count()))
	return rs, nil
}

// playRound plays one whole round on the started server, checks it, and
// starts the server for the next round. Only the round itself is timed.
func (w *wireChurn) playRound(rs *runStats, tr *tracer, lay *wireLayer) error {
	srv, plan := w.srv, w.plan
	n := len(plan.clients)
	tickStart := make([]time.Time, plan.slots+1)
	tickEnd := make([]time.Time, plan.slots+1)
	ready := make(chan struct{}, n) // one send per client per tick
	stop := make(chan struct{})
	clients := make([]*wireClient, n)
	for c := range clients {
		clients[c] = &wireClient{
			addr: srv.Addr(), plan: plan.clients[c], slots: plan.slots,
			ready: ready, ticked: make(chan struct{}, 1), stop: stop,
			tickStart: tickStart, tickEnd: tickEnd, log: tr.log(), tr: tr,
		}
	}
	log := tr.log()
	roundTrace, roundSpan := tr.newTrace(), log.reserve()
	before := srv.Stats()

	runtime.GC()
	alloc0 := totalAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(n)
	for _, c := range clients {
		go func(c *wireClient) {
			defer wg.Done()
			c.play()
		}(c)
	}
	var tickErr error
	for t := core.Slot(1); t <= plan.slots; t++ {
		for i := 0; i < n; i++ {
			<-ready
		}
		tickStart[t] = time.Now()
		_, err := srv.Tick(plan.tasks[t])
		tickEnd[t] = time.Now()
		if err != nil {
			tickErr = fmt.Errorf("tick %d: %w", t, err)
			break
		}
		log.record("platform.tick", roundTrace, roundSpan, tickStart[t], tickEnd[t])
		for _, c := range clients {
			c.ticked <- struct{}{}
		}
	}
	if tickErr != nil {
		close(stop)
	}
	wg.Wait()
	end := time.Now()
	allocated := totalAlloc() - alloc0
	log.close(roundSpan, "harness.round", roundTrace, 0, start, end)
	if tickErr != nil {
		return tickErr
	}
	for _, c := range clients {
		rs.attempted += c.attempted
		for _, f := range c.failures {
			rs.fail("%s", f)
		}
	}
	rs.allocBytes += allocated
	rs.busy += end.Sub(start)
	rs.slots += int64(plan.slots)
	rs.rounds++
	lay.add(clients, tickStart, tickEnd)
	for _, c := range clients {
		rs.bids += c.settled
		rs.ack.merge(&c.ack)
		rs.assign.merge(&c.assign)
		rs.payment.merge(&c.payment)
	}

	// Round-end checks, untimed: the server's own outcome against the
	// reference, and its error counters.
	round := rs.rounds
	rs.attempted++
	if err := checkServerOutcome(srv, plan); err != nil {
		rs.fail("round %d outcome: %v", round, err)
	}
	after := srv.Stats()
	if d := after.ProtocolErrors - before.ProtocolErrors; d > 0 {
		rs.failN(int64(d), "round %d: server counted %d protocol errors", round, d)
	}
	if d := after.SlowConsumers - before.SlowConsumers; d > 0 {
		rs.failN(d, "round %d: server disconnected %d slow consumers", round, d)
	}
	lay.queued += after.MessagesQueued - before.MessagesQueued
	lay.dropped += after.MessagesDropped - before.MessagesDropped
	w.close()
	return w.start()
}

// checkServerOutcome compares Server.Outcome with the reference. Server
// phone IDs follow the order bids reached it, so phones are matched by
// (arrival, cost), which the plan makes unique.
func checkServerOutcome(srv *platform.Server, plan *wirePlan) error {
	if !srv.Done() {
		return errors.New("server does not report the round done")
	}
	out, inst := srv.Outcome(), srv.Instance()
	byKey := make(map[bidKey]*phonePlan, plan.phones)
	for _, phones := range plan.clients {
		for _, ph := range phones {
			byKey[bidKey{ph.arrival, ph.cost}] = ph
		}
	}
	if len(inst.Bids) != plan.phones {
		return fmt.Errorf("server admitted %d phones, plan has %d", len(inst.Bids), plan.phones)
	}
	if len(out.Allocation.ByTask) != len(plan.ref.Allocation.ByTask) {
		return fmt.Errorf("server saw %d tasks, reference %d", len(out.Allocation.ByTask), len(plan.ref.Allocation.ByTask))
	}
	for i, b := range inst.Bids {
		ph := byKey[bidKey{b.Arrival, b.Cost}]
		switch {
		case ph == nil:
			return fmt.Errorf("server phone %d (arrival %d, cost %v) is not in the plan", i, b.Arrival, b.Cost)
		case b.Departure != ph.departure:
			return fmt.Errorf("phone %s departs at %d, plan %d", ph.name, b.Departure, ph.departure)
		case out.Allocation.ByPhone[i] != ph.task || out.Allocation.WonAt[i] != ph.wonAt:
			return fmt.Errorf("phone %s won task %d@%d, reference %d@%d",
				ph.name, out.Allocation.ByPhone[i], out.Allocation.WonAt[i], ph.task, ph.wonAt)
		case math.Float64bits(out.Payments[i]) != math.Float64bits(ph.pay):
			return fmt.Errorf("phone %s paid %v, reference %v", ph.name, out.Payments[i], ph.pay)
		}
	}
	if math.Float64bits(out.Welfare) != math.Float64bits(plan.ref.Welfare) {
		return fmt.Errorf("welfare %v, reference %v", out.Welfare, plan.ref.Welfare)
	}
	return nil
}

// wireClient plays one client's stream of phones over one round. All its
// fields except the channels are its own until play returns.
type wireClient struct {
	addr  string
	plan  []*phonePlan
	slots core.Slot

	ready     chan<- struct{}
	ticked    chan struct{}
	stop      <-chan struct{}
	tickStart []time.Time // written by the clock before ticked is sent
	tickEnd   []time.Time
	tr        *tracer
	log       *spanLog

	m protocol.Message // reused receive buffer

	attempted, settled   int64
	failures             []string
	ack, assign, payment samples
	deliver, connected   samples
	send                 [2]samples
	frames, bytes        [2]int64
	phones               [2]int64
	useful               int64
}

// livePhone is the connection of the phone a client is playing.
type livePhone struct {
	plan   *phonePlan
	conn   *countingConn
	tcp    *net.TCPConn
	w      *protocol.Writer
	r      *protocol.Reader
	format protocol.Format
	id     core.PhoneID
	frames int64
	failed bool
	trace  int64
	root   int64
	start  time.Time
}

func (c *wireClient) play() {
	idx := 0
	var ph *livePhone
	for t := core.Slot(1); t <= c.slots; t++ {
		p := c.plan[idx]
		if p.arrival == t {
			c.attempted++
			ph = c.connect(p)
		}
		c.ready <- struct{}{}
		select {
		case <-c.ticked:
		case <-c.stop:
			if ph != nil {
				ph.conn.Close()
			}
			return
		}
		if ph != nil && !ph.failed {
			c.readTick(ph, t)
		}
		if p.departure == t {
			if ph != nil {
				c.disconnect(ph)
			}
			if ph != nil && !ph.failed {
				c.settled++
			}
			ph = nil
			idx++
		}
	}
}

func (c *wireClient) failPhone(ph *livePhone, format string, args ...any) {
	if !ph.failed {
		c.failures = append(c.failures, fmt.Sprintf("phone %s: ", ph.plan.name)+fmt.Sprintf(format, args...))
	}
	ph.failed = true
}

// sendTimed writes one frame, timing Writer.Send.
func (c *wireClient) sendTimed(ph *livePhone, m *protocol.Message, parent int64) error {
	start := time.Now()
	err := ph.w.Send(m)
	end := time.Now()
	f := ph.w.Format()
	c.send[f].addDur(end.Sub(start), 1)
	c.log.record("protocol.send", ph.trace, parent, start, end)
	ph.frames++
	return err
}

func (c *wireClient) receive(ph *livePhone) error {
	err := ph.r.ReceiveInto(&c.m)
	if err == nil {
		ph.frames++
	}
	return err
}

// connect dials, says hello, bids and waits for the ack. A phone whose
// bid is not acked is returned failed; nil means the dial itself failed.
func (c *wireClient) connect(p *phonePlan) *livePhone {
	ph := &livePhone{plan: p, id: core.NoPhone, trace: c.tr.newTrace(), root: c.log.reserve(), start: time.Now()}
	connSpan := c.log.reserve()
	conn, err := net.DialTimeout("tcp", c.addr, wireTimeout)
	if err != nil {
		c.failures = append(c.failures, fmt.Sprintf("phone %s: dial: %v", p.name, err))
		return nil
	}
	ph.tcp = conn.(*net.TCPConn)
	ph.conn = &countingConn{Conn: conn}
	ph.w, ph.r = protocol.NewWriter(ph.conn), protocol.NewReader(ph.conn)
	conn.SetDeadline(time.Now().Add(wireTimeout))

	hello := &protocol.Message{Type: protocol.TypeHello}
	if p.binary {
		hello.Wire = protocol.WireBinary
	}
	if err := c.sendTimed(ph, hello, connSpan); err != nil {
		c.failPhone(ph, "hello: %v", err)
		return ph
	}
	if err := c.receive(ph); err != nil || c.m.Type != protocol.TypeState {
		c.failPhone(ph, "state reply: %v (got %q)", err, c.m.Type)
		return ph
	}
	if p.binary {
		if c.m.Wire != protocol.WireBinary {
			c.failPhone(ph, "binary upgrade refused (wire %q)", c.m.Wire)
			return ph
		}
		ph.r.SetFormat(protocol.FormatBinary)
		ph.w.SetFormat(protocol.FormatBinary)
		ph.format = protocol.FormatBinary
	}
	connected := time.Now()
	c.connected.addDur(connected.Sub(ph.start), 1)
	c.log.close(connSpan, "platform.connect", ph.trace, ph.root, ph.start, connected)

	ackSpan := c.log.reserve()
	bid := &protocol.Message{Type: protocol.TypeBid, Name: p.name, Duration: p.duration, Cost: p.cost}
	if err := c.sendTimed(ph, bid, ackSpan); err != nil {
		c.failPhone(ph, "bid: %v", err)
		return ph
	}
	if err := c.receive(ph); err != nil || c.m.Type != protocol.TypeAck {
		c.failPhone(ph, "bid not acked: %v (got %q %s)", err, c.m.Type, c.m.Error)
		return ph
	}
	acked := time.Now()
	c.ack.addDur(acked.Sub(connected), 1)
	c.log.close(ackSpan, "platform.ack", ph.trace, ph.root, connected, acked)
	c.useful += 2 // state and ack
	return ph
}

// Frames a live phone expects in one tick.
const (
	wantWelcome = 1 << iota
	wantSlot
	wantAssign
	wantPayment
)

// readTick decodes the frames tick t owes the phone and checks each
// against the reference.
func (c *wireClient) readTick(ph *livePhone, t core.Slot) {
	p := ph.plan
	want := wantSlot
	if p.arrival == t {
		want |= wantWelcome
	}
	if p.wonAt == t {
		want |= wantAssign
	}
	if p.task != core.NoTask && p.departure == t {
		want |= wantPayment
	}
	ph.conn.SetReadDeadline(time.Now().Add(wireTimeout))
	for want != 0 {
		if err := c.receive(ph); err != nil {
			c.failPhone(ph, "slot %d: %v (still waiting for %04b)", t, err, want)
			return
		}
		now := time.Now()
		m := &c.m
		switch {
		case m.Type == protocol.TypeWelcome && want&wantWelcome != 0:
			if m.Slot != t || m.Departure != p.departure {
				c.failPhone(ph, "welcome slot %d departure %d, want %d/%d", m.Slot, m.Departure, t, p.departure)
			}
			ph.id = m.Phone
			want &^= wantWelcome
		case m.Type == protocol.TypeSlot && want&wantSlot != 0:
			if m.Slot != t {
				c.failPhone(ph, "slot notice %d at tick %d", m.Slot, t)
			}
			want &^= wantSlot
		case m.Type == protocol.TypeAssign && want&wantAssign != 0:
			if m.Phone != ph.id || m.Task != p.task || m.Slot != t {
				c.failPhone(ph, "assign phone %d task %d slot %d, want %d/%d/%d", m.Phone, m.Task, m.Slot, ph.id, p.task, t)
			}
			c.assign.addDur(now.Sub(c.tickStart[t]), 1)
			c.delivered(ph, t, now)
			want &^= wantAssign
		case m.Type == protocol.TypePayment && want&wantPayment != 0:
			if m.Phone != ph.id || math.Float64bits(m.Amount) != math.Float64bits(p.pay) || m.Slot != t {
				c.failPhone(ph, "payment phone %d amount %v slot %d, want %d/%v/%d", m.Phone, m.Amount, m.Slot, ph.id, p.pay, t)
			}
			c.payment.addDur(now.Sub(c.tickStart[t]), 1)
			c.delivered(ph, t, now)
			want &^= wantPayment
		default:
			c.failPhone(ph, "unexpected %s frame at tick %d (%+v)", m.Type, t, *m)
			return
		}
		c.useful++
	}
}

func (c *wireClient) delivered(ph *livePhone, t core.Slot, now time.Time) {
	c.deliver.addDur(now.Sub(c.tickEnd[t]), 1)
	c.log.record("platform.deliver", ph.trace, ph.root, c.tickEnd[t], now)
}

// disconnect half-closes the phone's connection and reads to EOF, so the
// server sees a clean end of stream rather than a reset. Only round
// bookkeeping frames may still arrive.
func (c *wireClient) disconnect(ph *livePhone) {
	start := time.Now()
	if !ph.failed {
		if err := ph.tcp.CloseWrite(); err != nil {
			c.failPhone(ph, "close: %v", err)
		}
		ph.conn.SetReadDeadline(time.Now().Add(wireTimeout))
		for !ph.failed {
			err := c.receive(ph)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				c.failPhone(ph, "reading to EOF: %v", err)
				break
			}
			switch c.m.Type {
			case protocol.TypeSlot, protocol.TypeEnd, protocol.TypeRound:
			default:
				c.failPhone(ph, "unexpected %s frame after departure", c.m.Type)
			}
		}
	}
	ph.conn.Close()
	end := time.Now()
	c.log.record("platform.close", ph.trace, ph.root, start, end)
	c.log.close(ph.root, "agent.phone", ph.trace, 0, ph.start, end)
	c.phones[ph.format]++
	c.frames[ph.format] += ph.frames
	c.bytes[ph.format] += ph.conn.read + ph.conn.written
}

// countingConn counts the bytes a phone's connection carries.
type countingConn struct {
	net.Conn
	read, written int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read += int64(n)
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written += int64(n)
	return n, err
}
