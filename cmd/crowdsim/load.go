// Load harness: -load drives a swarm of in-process virtual agents
// against a real platform.Server and reports sustained throughput.
//
// The agents speak the real wire protocol end to end — dial, hello
// (optionally negotiating the binary framing), bid, then drain slot
// fan-out — so the numbers cover the full encode/queue/write/decode
// path, not a mocked transport. The default transport is
// chaos.MemListener (net.Pipe pairs): no file descriptors, so a
// 100k-agent swarm fits inside an ordinary ulimit; -load-transport tcp
// switches to real loopback sockets for smaller swarms.
//
// Results print as `go test -bench`-shaped lines so they pipe straight
// into cmd/benchjson:
//
//	crowdsim -load -load-agents 100000 | benchjson -out BENCH_PR8.json -section load
package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynacrowd/internal/chaos"
	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/platform"
	"dynacrowd/internal/protocol"
	"dynacrowd/internal/workload"
)

// loadOptions parameterize one -load invocation.
type loadOptions struct {
	agents    int
	ticks     int
	tasks     int    // tasks announced per measured tick (0 = pure fan-out)
	queue     int    // per-session outbound queue depth
	wire      string  // "json", "binary", or "both"
	transport string  // "mem" or "tcp"
	minMsgs   float64 // fail the run below this msgs/s (0 disables); smoke floor
	seed      uint64
}

// loadResult is one measured run.
type loadResult struct {
	wire         string
	bidsPerSec   float64
	msgsPerSec   float64
	fanoutP50    float64 // seconds
	fanoutP99    float64 // seconds
	allocsPerMsg float64
	delivered    int64 // messages written to the wire during the measured phase
	slotsSeen    int64 // slot notices decoded by the agents (sanity signal)
}

func (o loadOptions) validate() error {
	switch {
	case o.agents < 1:
		return fmt.Errorf("load: -load-agents %d must be positive", o.agents)
	case o.ticks < 1:
		return fmt.Errorf("load: -load-ticks %d must be positive", o.ticks)
	case o.tasks < 0:
		return fmt.Errorf("load: -load-tasks %d must be non-negative", o.tasks)
	case o.queue < o.ticks+2:
		// Every measured tick enqueues one slot notice per session; a
		// queue shallower than the tick count would trip the
		// slow-consumer disconnect by design rather than by load.
		return fmt.Errorf("load: -load-queue %d must exceed -load-ticks+1 (%d)", o.queue, o.ticks+1)
	case o.wire != protocol.WireJSON && o.wire != protocol.WireBinary && o.wire != "both":
		return fmt.Errorf("load: -load-wire %q must be json, binary, or both", o.wire)
	case o.transport != "mem" && o.transport != "tcp":
		return fmt.Errorf("load: -load-transport %q must be mem or tcp", o.transport)
	}
	return nil
}

// runLoad executes the harness for each requested wire format and
// prints benchjson-compatible result lines to out. Progress and
// human-readable summaries go to stderr so `crowdsim -load | benchjson`
// stays clean.
func runLoad(opt loadOptions, out io.Writer) error {
	if err := opt.validate(); err != nil {
		return err
	}
	wires := []string{opt.wire}
	if opt.wire == "both" {
		wires = []string{protocol.WireJSON, protocol.WireBinary}
	}
	fmt.Fprintln(out, "pkg: dynacrowd/cmd/crowdsim")
	// go test's name suffix for GOMAXPROCS > 1, which benchjson records.
	procs := ""
	if n := runtime.GOMAXPROCS(0); n > 1 {
		procs = fmt.Sprintf("-%d", n)
	}
	byWire := make(map[string]*loadResult, len(wires))
	for _, wire := range wires {
		res, err := runLoadOnce(opt, wire)
		if err != nil {
			return fmt.Errorf("load (%s): %w", wire, err)
		}
		byWire[wire] = res
		fmt.Fprintf(out, "BenchmarkLoadHarness/agents=%d/ticks=%d/wire=%s%s 1 %.1f bids/s %.1f msgs/s %.1f msgs/s/core %.0f ns/fanout-p50 %.0f ns/fanout-p99 %.4f allocs/msg\n",
			opt.agents, opt.ticks, wire, procs,
			res.bidsPerSec, res.msgsPerSec, res.msgsPerSec/float64(runtime.GOMAXPROCS(0)),
			res.fanoutP50*1e9, res.fanoutP99*1e9, res.allocsPerMsg)
		fmt.Fprintf(os.Stderr, "crowdsim: load %s: %d agents, %d ticks: %.0f bids/s, %.0f msgs/s, fan-out p50 %s p99 %s, %.4f allocs/msg (%d delivered, %d slot notices decoded)\n",
			wire, opt.agents, opt.ticks, res.bidsPerSec, res.msgsPerSec,
			time.Duration(res.fanoutP50*1e9), time.Duration(res.fanoutP99*1e9),
			res.allocsPerMsg, res.delivered, res.slotsSeen)
	}
	if j, b := byWire[protocol.WireJSON], byWire[protocol.WireBinary]; j != nil && b != nil && j.msgsPerSec > 0 {
		fmt.Fprintf(os.Stderr, "crowdsim: load: binary/json throughput ratio %.2fx\n", b.msgsPerSec/j.msgsPerSec)
	}
	if opt.minMsgs > 0 {
		for wire, res := range byWire {
			if res.msgsPerSec < opt.minMsgs {
				return fmt.Errorf("load: %s sustained %.0f msgs/s, below the %.0f floor", wire, res.msgsPerSec, opt.minMsgs)
			}
		}
	}
	return nil
}

// runLoadOnce measures one wire format: connect/bid phase, one
// admission tick, then a measured fan-out phase of opt.ticks ticks.
func runLoadOnce(opt loadOptions, wire string) (*loadResult, error) {
	o, err := obs.New(obs.Options{}) // registry only; no HTTP listener
	if err != nil {
		return nil, err
	}
	var ln net.Listener
	var dial func() (net.Conn, error)
	switch opt.transport {
	case "mem":
		ml := chaos.NewMemListener(1024)
		ln, dial = ml, ml.Dial
	case "tcp":
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			o.Close()
			return nil, err
		}
		addr := tl.Addr().String()
		ln, dial = tl, func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}

	// Slots: the round must outlast the measured ticks, or the
	// round-end broadcast and fresh-round reset land mid-measurement.
	slots := core.Slot(opt.ticks + 16)
	srv, err := platform.Serve(ln, platform.Config{
		Slots:         slots,
		Value:         workload.DefaultScenario().Value,
		OutboundQueue: opt.queue,
		// net.Pipe writes rendezvous with the reader, so a per-write
		// deadline would need a timer per coalesced batch across 100k
		// sessions; the bounded queue is the slow-consumer trip wire.
		WriteTimeout: -1,
		Obs:          o,
	})
	if err != nil {
		o.Close()
		return nil, err
	}
	defer srv.Close() // also closes o: the server owns Config.Obs

	// Seeded bid schedule: costs drawn from the paper's Table I
	// workload; every agent stays available for the whole round so the
	// fan-out population is constant during measurement.
	scn := workload.DefaultScenario()
	rng := workload.NewRNG(opt.seed)
	costs := make([]float64, opt.agents)
	for i := range costs {
		c := rng.Uniform(scn.MeanCost*(1-scn.CostSpread), scn.MeanCost*(1+scn.CostSpread))
		costs[i] = math.Max(c, 0.01)
	}

	// Connect phase: a worker pool dials, negotiates, and bids for all
	// agents. bids/s is the full ingest path — dial, hello handshake,
	// bid, ack — not just raw message parsing.
	agents := make([]*loadAgent, opt.agents)
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	workers := 256
	if workers > opt.agents {
		workers = opt.agents
	}
	var wg sync.WaitGroup
	connectStart := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opt.agents || firstErr.Load() != nil {
					return
				}
				a, err := connectLoadAgent(dial, wire, "load-"+strconv.Itoa(i), slots, costs[i])
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				agents[i] = a
			}
		}()
	}
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		return nil, *errp
	}
	bidsPerSec := float64(opt.agents) / time.Since(connectStart).Seconds()

	// Every agent drains its connection for the rest of the run,
	// counting decoded slot notices as a delivery sanity signal.
	var slotsSeen atomic.Int64
	for _, a := range agents {
		go a.drain(&slotsSeen)
	}
	defer func() {
		for _, a := range agents {
			a.conn.Close()
		}
	}()

	// Admission tick: all pending bids join the auction, each phone
	// gets its welcome. Settle and garbage-collect before measuring so
	// connect-phase allocation doesn't bleed into allocs/msg.
	if _, err := srv.Tick(0); err != nil {
		return nil, err
	}
	if err := waitLoadDrained(srv, 2*time.Minute); err != nil {
		return nil, err
	}
	runtime.GC()

	pre := srv.Stats()
	if pre.SlowConsumers > 0 || pre.MessagesDropped > 0 {
		return nil, fmt.Errorf("%d slow consumers, %d drops before measurement (queue too shallow?)", pre.SlowConsumers, pre.MessagesDropped)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	sent0 := pre.MessagesSentJSON + pre.MessagesSentBinary

	// Measured phase. Ticks run as fast as the backlog budget allows:
	// per-session queues absorb several ticks of fan-out and the
	// coalescing writers flush each backlog in one write, which is
	// exactly the steady state of a platform ahead of its slowest
	// consumers. The budget (half the aggregate queue capacity) keeps
	// pacing honest — nobody is pushed into the slow-consumer trip.
	budget := int64(opt.agents) * int64(opt.queue) / 2
	start := time.Now()
	for t := 0; t < opt.ticks; t++ {
		for {
			st := srv.Stats()
			backlog := st.MessagesQueued - st.MessagesSentJSON - st.MessagesSentBinary - st.MessagesDropped
			if backlog <= budget {
				break
			}
			runtime.Gosched()
		}
		if _, err := srv.Tick(opt.tasks); err != nil {
			return nil, err
		}
	}
	if err := waitLoadDrained(srv, 5*time.Minute); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	runtime.ReadMemStats(&ms)
	post := srv.Stats()
	if post.SlowConsumers > 0 || post.MessagesDropped > 0 {
		return nil, fmt.Errorf("%d slow consumers, %d drops during measurement", post.SlowConsumers, post.MessagesDropped)
	}
	delivered := post.MessagesSentJSON + post.MessagesSentBinary - sent0
	if delivered == 0 {
		return nil, fmt.Errorf("no messages delivered during measurement")
	}
	fanout := o.Registry.Histogram("dynacrowd_platform_fanout_seconds",
		"time to enqueue one tick's announcements across all sessions", obs.LatencyBuckets)
	return &loadResult{
		wire:         wire,
		bidsPerSec:   bidsPerSec,
		msgsPerSec:   float64(delivered) / elapsed.Seconds(),
		fanoutP50:    fanout.Quantile(0.50),
		fanoutP99:    fanout.Quantile(0.99),
		allocsPerMsg: float64(ms.Mallocs-mallocs0) / float64(delivered),
		delivered:    delivered,
		slotsSeen:    slotsSeen.Load(),
	}, nil
}

// loadAgent is one virtual smartphone: a real protocol conversation
// over its own connection.
type loadAgent struct {
	conn net.Conn
	r    *protocol.Reader
	w    *protocol.Writer
}

// connectLoadAgent dials, performs the hello handshake (negotiating the
// binary framing when wire says so), and submits one bid, returning
// once the ack arrives.
func connectLoadAgent(dial func() (net.Conn, error), wire, name string, duration core.Slot, cost float64) (*loadAgent, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	a := &loadAgent{conn: conn, r: protocol.NewReader(conn), w: protocol.NewWriter(conn)}
	hello := &protocol.Message{Type: protocol.TypeHello}
	if wire == protocol.WireBinary {
		hello.Wire = protocol.WireBinary
	}
	if err := a.w.Send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	st, err := a.r.Receive()
	if err != nil || st.Type != protocol.TypeState {
		conn.Close()
		return nil, fmt.Errorf("%s: handshake: got %v, err %w", name, st, err)
	}
	if wire == protocol.WireBinary {
		if st.Wire != protocol.WireBinary {
			conn.Close()
			return nil, fmt.Errorf("%s: binary negotiation refused", name)
		}
		a.r.SetFormat(protocol.FormatBinary)
		a.w.SetFormat(protocol.FormatBinary)
	}
	if err := a.w.Send(&protocol.Message{Type: protocol.TypeBid, Name: name, Duration: duration, Cost: cost}); err != nil {
		conn.Close()
		return nil, err
	}
	for {
		m, err := a.r.Receive()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("%s: awaiting ack: %w", name, err)
		}
		switch m.Type {
		case protocol.TypeAck:
			return a, nil
		case protocol.TypeError:
			conn.Close()
			return nil, fmt.Errorf("%s: bid rejected: %s", name, m.Error)
		}
	}
}

// drain consumes the connection until it dies. ReceiveInto keeps the
// loop allocation-free in binary mode, so agent-side decode cost — not
// agent-side garbage — is what the harness weighs.
func (a *loadAgent) drain(slots *atomic.Int64) {
	var m protocol.Message
	for {
		if err := a.r.ReceiveInto(&m); err != nil {
			return
		}
		if m.Type == protocol.TypeSlot {
			slots.Add(1)
		}
	}
}

// waitLoadDrained blocks until every queued outbound message has been
// written to the wire (or dropped), i.e. the swarm has caught up.
func waitLoadDrained(s *platform.Server, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for {
		st := s.Stats()
		if st.MessagesSentJSON+st.MessagesSentBinary+st.MessagesDropped >= st.MessagesQueued {
			return nil
		}
		if time.Now().After(stop) {
			return fmt.Errorf("queues never drained: %d queued, %d sent, %d dropped",
				st.MessagesQueued, st.MessagesSentJSON+st.MessagesSentBinary, st.MessagesDropped)
		}
		runtime.Gosched()
	}
}
