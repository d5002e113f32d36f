// Package chaos provides deterministic, seeded fault injection for
// net.Conn and net.Listener, so the platform's tolerance of dynamic
// smartphones — the paper's defining assumption (§III) — is a testable
// property rather than a hope. A Plan describes which faults to inject
// (added latency, stalled reads or writes, chunked and truncated
// writes, mid-stream disconnects) and with what probability; every
// random decision is drawn from a splitmix64-derived stream seeded by
// Plan.Seed and the connection's accept/dial index, so a fixed seed
// replays the same fault schedule per connection.
//
// The wrappers are transport-agnostic: wrap a test server's listener to
// batter server→agent traffic, wrap an agent's dialed conn to batter
// the uplink, or both. Closing a chaos conn (from either side of the
// wrapper) releases any in-progress stall.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error returned by operations the plan decided to
// fail; wrap-aware tests can errors.Is against it.
var ErrInjected = errors.New("chaos: injected fault")

// Plan configures the faults injected into a connection. The zero
// value injects nothing (a transparent wrapper). Probabilities are per
// operation in [0, 1].
type Plan struct {
	// Seed drives every random decision. Connections derive their own
	// streams from it, so one Plan shared by a listener yields a
	// distinct but reproducible schedule per accepted connection.
	Seed int64

	// LatencyProb is the chance an individual Read or Write sleeps
	// for a uniform duration in (0, MaxLatency] before proceeding.
	LatencyProb float64
	MaxLatency  time.Duration

	// StallReads blocks every Read until the connection is closed,
	// simulating a peer that is alive at the TCP level but never
	// delivers another byte.
	StallReads bool

	// StallWrites blocks every Write until the connection is closed,
	// simulating a peer that stops draining its receive window (the
	// classic slow consumer).
	StallWrites bool

	// ChunkBytes > 0 splits each Write into chunks of at most this
	// many bytes (with a latency roll between chunks), stressing
	// message reassembly across TCP segmentation.
	ChunkBytes int

	// TruncateProb is the chance a Write delivers only a strict prefix
	// of its payload and then cuts the connection — a torn frame.
	TruncateProb float64

	// DisconnectProb is the chance the connection is cut immediately
	// after a Write delivers in full — a clean mid-stream hangup.
	DisconnectProb float64

	// CutAfterWrites, when > 0, deterministically cuts the connection
	// after exactly that many successful Writes, independent of any
	// probability roll. Useful for scripting a disconnect at a known
	// point in the message flow.
	CutAfterWrites int

	// ArmAfterBytes delays every cutting fault (TruncateProb,
	// DisconnectProb, CutAfterWrites) until at least this many bytes
	// have been written, so a handshake can complete before the
	// connection becomes vulnerable.
	ArmAfterBytes int64

	// Counters, when non-nil, tallies every fault the plan injects,
	// across all connections sharing the plan.
	Counters *Counters
}

// splitmix64 is the standard 64-bit mix used to derive independent
// child seeds from a master seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func childSeed(seed int64, index int64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ uint64(index)))
}

// Conn is a net.Conn with the Plan's faults injected. Create one with
// WrapConn, or implicitly via Listener / Dialer.
type Conn struct {
	net.Conn
	plan Plan

	mu      sync.Mutex // guards rng, written, writes, cut (write path)
	rng     *rand.Rand
	written int64
	writes  int
	cut     bool

	// The read path draws from its own stream under its own lock, so a
	// Read never waits behind a Write blocked on the transport — real
	// net.Conns are full duplex, and the wrapper must be too.
	rmu  sync.Mutex
	rrng *rand.Rand

	closeOnce sync.Once
	done      chan struct{} // closed on Close; releases stalls
}

// WrapConn wraps c with the plan's faults, drawing randomness from the
// stream derived for connection index (use distinct indexes for
// distinct connections under one seed).
func WrapConn(c net.Conn, plan Plan, index int64) *Conn {
	child := childSeed(plan.Seed, index)
	return &Conn{
		Conn: c,
		plan: plan,
		rng:  rand.New(rand.NewSource(child)),
		rrng: rand.New(rand.NewSource(childSeed(child, 1))),
		done: make(chan struct{}),
	}
}

// Close closes the underlying connection and releases any stalled
// Read/Write. Safe to call more than once.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		err = c.Conn.Close()
	})
	return err
}

// maybeSleep rolls the latency fault for the write path. Called with
// c.mu held; the sleep itself releases the lock so a concurrent Close
// (or another Write) is not serialized behind an injected delay.
func (c *Conn) maybeSleep() {
	if c.plan.LatencyProb <= 0 || c.plan.MaxLatency <= 0 {
		return
	}
	if c.rng.Float64() >= c.plan.LatencyProb {
		return
	}
	c.plan.Counters.noteLatency()
	d := time.Duration(1 + c.rng.Int63n(int64(c.plan.MaxLatency)))
	c.mu.Unlock()
	defer c.mu.Lock()
	select {
	case <-time.After(d):
	case <-c.done:
	}
}

// Read implements net.Conn. It shares no lock with Write: a Read may
// proceed (and sleep, and deliver) while a Write is blocked on the
// transport, exactly as on a real full-duplex connection.
func (c *Conn) Read(b []byte) (int, error) {
	if c.plan.StallReads {
		c.plan.Counters.noteStalledRead()
		<-c.done
		return 0, errClosed("read")
	}
	if c.plan.LatencyProb > 0 && c.plan.MaxLatency > 0 {
		c.rmu.Lock()
		var d time.Duration
		if c.rrng.Float64() < c.plan.LatencyProb {
			d = time.Duration(1 + c.rrng.Int63n(int64(c.plan.MaxLatency)))
		}
		c.rmu.Unlock()
		if d > 0 {
			c.plan.Counters.noteLatency()
			select {
			case <-time.After(d):
			case <-c.done:
			}
		}
	}
	return c.Conn.Read(b)
}

// Write implements net.Conn. A truncating fault delivers a strict
// prefix and then cuts the connection; a disconnect fault delivers the
// payload in full first. Both count as write errors to the caller.
func (c *Conn) Write(b []byte) (int, error) {
	if c.plan.StallWrites {
		c.plan.Counters.noteStalledWrite()
		<-c.done
		return 0, errClosed("write")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut {
		return 0, errClosed("write")
	}
	c.maybeSleep()

	armed := c.written >= c.plan.ArmAfterBytes
	if armed && len(b) > 1 && c.plan.TruncateProb > 0 && c.rng.Float64() < c.plan.TruncateProb {
		n := 1 + c.rng.Intn(len(b)-1)
		n, _ = c.Conn.Write(b[:n])
		c.written += int64(n)
		c.plan.Counters.noteTruncate()
		c.cutLocked()
		return n, errInjected("truncated write after %d bytes", n)
	}

	n, err := c.writeChunked(b)
	c.written += int64(n)
	if err != nil {
		return n, err
	}
	c.writes++
	cut := c.plan.CutAfterWrites > 0 && c.writes >= c.plan.CutAfterWrites
	if armed && (cut || (c.plan.DisconnectProb > 0 && c.rng.Float64() < c.plan.DisconnectProb)) {
		c.plan.Counters.noteDisconnect()
		c.cutLocked()
		return n, errInjected("disconnect after write %d", c.writes)
	}
	return n, nil
}

// writeChunked forwards b to the underlying conn, split into
// ChunkBytes-sized pieces when configured. Called with c.mu held.
func (c *Conn) writeChunked(b []byte) (int, error) {
	if c.plan.ChunkBytes <= 0 || len(b) <= c.plan.ChunkBytes {
		return c.Conn.Write(b)
	}
	total := 0
	for len(b) > 0 {
		end := c.plan.ChunkBytes
		if end > len(b) {
			end = len(b)
		}
		n, err := c.Conn.Write(b[:end])
		total += n
		if err != nil {
			return total, err
		}
		b = b[end:]
		c.maybeSleep()
	}
	return total, nil
}

// cutLocked severs the underlying transport. Called with c.mu held.
func (c *Conn) cutLocked() {
	c.cut = true
	c.closeOnce.Do(func() {
		close(c.done)
		c.Conn.Close()
	})
}

func errInjected(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInjected}, args...)...)
}

func errClosed(op string) error {
	return &net.OpError{Op: op, Err: net.ErrClosed}
}

// Listener wraps a net.Listener so every accepted connection carries
// the plan's faults, each with its own deterministic random stream.
type Listener struct {
	net.Listener
	plan Plan
	next atomic.Int64
}

// Wrap returns a fault-injecting listener over ln.
func Wrap(ln net.Listener, plan Plan) *Listener {
	return &Listener{Listener: ln, plan: plan}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(c, l.plan, l.next.Add(1)), nil
}

// Dialer dials TCP connections wrapped with the plan's faults; each
// dial gets the next deterministic stream. The zero value of everything
// but Plan is ready to use.
type Dialer struct {
	Plan    Plan
	Timeout time.Duration // default 5s
	next    atomic.Int64
}

// Dial connects to addr and wraps the connection.
func (d *Dialer) Dial(addr string) (net.Conn, error) {
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return WrapConn(c, d.Plan, d.next.Add(1)), nil
}
