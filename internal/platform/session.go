package platform

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynacrowd/internal/protocol"
)

// outbound is one unit of work for a session's writer goroutine: either
// a per-session message to encode, or a shared pre-encoded broadcast
// frame (see frame.go). upgrade marks the negotiated wire switch: the
// writer sends msg (the state reply, still in the old format) and then
// flips itself to binary for everything after.
type outbound struct {
	msg     *protocol.Message
	frame   *frame
	upgrade bool
}

// session is one agent connection. Outbound traffic goes through a
// bounded queue drained by a dedicated writer goroutine, so the slot
// clock (Server.Tick) can never be stalled by a peer: a session that
// stops draining either misses its per-message write deadline or
// overflows its queue, and in both cases it is disconnected rather
// than waited on.
type session struct {
	srv  *Server
	conn net.Conn

	out      chan outbound
	done     chan struct{} // closed once the session is torn down
	closing  chan struct{} // closed to ask the writer to flush then sever
	readDone chan struct{} // closed when the reader (Server.serve) returns

	closeOnce    sync.Once
	shutdownOnce sync.Once
	gone         atomic.Bool // writer dead; further sends are dropped
	binary       atomic.Bool // negotiated the compact binary framing

	bid bool // guarded by Server.mu: a bid was accepted on this connection
	// phones holds the positions in Server.fanout of the entries for
	// the phones attached to this session this round. Guarded by
	// Server.mu; emptied when the session detaches or a round opens.
	phones []int
}

func newSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:      srv,
		conn:     conn,
		out:      make(chan outbound, srv.cfg.outboundQueue()),
		done:     make(chan struct{}),
		closing:  make(chan struct{}),
		readDone: make(chan struct{}),
	}
}

// send enqueues m for delivery and never blocks. A dead session drops
// the message; a full queue marks the session a slow consumer and
// disconnects it. Either way the auction keeps the session's bid — the
// phone promised availability — and the lost notices can be recovered
// later through resume{phone}.
func (sess *session) send(m *protocol.Message) {
	sess.enqueue(outbound{msg: m}, m.Type)
}

// sendUpgrade enqueues the state reply that finalizes a binary
// negotiation; the writer switches its wire format right after writing
// it, so the reply is the last JSON message the session emits.
func (sess *session) sendUpgrade(m *protocol.Message) {
	sess.enqueue(outbound{msg: m, upgrade: true}, m.Type)
}

// sendFrame enqueues a shared broadcast frame, taking its own reference
// on the frame for the writer to release after the write (or for the
// drop path to release immediately).
func (sess *session) sendFrame(f *frame, msgType string) {
	f.retain()
	sess.enqueue(outbound{frame: f}, msgType)
}

func (sess *session) enqueue(o outbound, msgType string) {
	if sess.gone.Load() {
		sess.srv.counters.messagesDropped.Add(1)
		sess.releaseOutbound(o)
		return
	}
	select {
	case sess.out <- o:
		sess.srv.counters.messagesQueued.Add(1)
	default:
		sess.srv.counters.messagesDropped.Add(1)
		sess.srv.counters.slowConsumers.Add(1)
		sess.releaseOutbound(o)
		sess.srv.cfg.Logger.Warn("slow consumer disconnected",
			"remote", sess.conn.RemoteAddr().String(), "dropped", msgType)
		sess.abort()
	}
}

func (sess *session) releaseOutbound(o outbound) {
	if o.frame != nil {
		o.frame.release()
	}
}

// abort severs the connection; the reader and writer goroutines unwind
// on their own. Safe to call more than once and from any goroutine.
func (sess *session) abort() {
	sess.closeOnce.Do(func() {
		close(sess.done)
		sess.conn.Close()
	})
}

// closeLinger bounds how long a closing session waits for the agent to
// hang up after the platform's half-close.
const closeLinger = time.Second

// hangUp ends a flushed session in order. The half-close lets the agent
// read every flushed message and then EOF; the socket is closed only
// once the reader has seen the agent hang up, or after closeLinger.
// Closing a socket with unread input makes the kernel send a reset,
// which can destroy messages the agent has not read yet. Connections
// without a half-close are severed at once.
func (sess *session) hangUp() {
	if cw, ok := sess.conn.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		sess.conn.SetReadDeadline(time.Now().Add(closeLinger))
		select {
		case <-sess.readDone:
		case <-sess.done:
		}
	}
	sess.abort()
}

// shutdown asks the writer to flush whatever is already queued (e.g.
// the error reply that ends a misbehaving session) and then sever the
// connection. Safe to call more than once.
func (sess *session) shutdown() {
	sess.shutdownOnce.Do(func() { close(sess.closing) })
}

// writeLoop drains the outbound queue onto the wire under the
// configured per-message write deadline. A failed or overdue write
// kills the session: its remaining queue is abandoned, exactly like a
// phone that powered off.
func (sess *session) writeLoop() {
	defer sess.srv.wg.Done()
	// Frames still queued when the writer dies hold references taken by
	// sendFrame; drain and release them so the buffers return to the
	// pool. (A send racing past gone after this drain leaks one frame to
	// the garbage collector — harmless, just unpooled.)
	defer func() {
		for {
			select {
			case o := <-sess.out:
				sess.releaseOutbound(o)
			default:
				return
			}
		}
	}()
	w := writerPool.Get().(*protocol.Writer)
	w.Reset(sess.conn)
	defer func() {
		w.Reset(nil) // a pooled Writer must not pin the connection
		writerPool.Put(w)
	}()
	timeout := sess.srv.cfg.writeTimeout()
	c := &sess.srv.counters
	fail := func() bool {
		sess.gone.Store(true)
		sess.abort()
		return false
	}
	// queueOne stages a message in the write buffer; flush pushes the
	// staged batch onto the wire. Coalescing the backlog into one flush
	// is what makes large fan-outs cheap: a session that fell a few
	// ticks behind catches up with a single write instead of one
	// syscall (or pipe handoff) per message.
	queueOne := func(o outbound) bool {
		var err error
		if o.frame != nil {
			err = w.QueueEncoded(o.frame.encoded(w.Format()))
			o.frame.release()
		} else {
			err = w.Queue(o.msg)
		}
		if err != nil {
			return fail()
		}
		if w.Format() == protocol.FormatBinary {
			c.sentBinary.Add(1)
		} else {
			c.sentJSON.Add(1)
		}
		if o.upgrade {
			w.SetFormat(protocol.FormatBinary)
		}
		return true
	}
	write := func(o outbound) bool {
		if timeout > 0 {
			// One deadline covers the whole coalesced batch, including any
			// write-through of an overfull buffer while staging.
			sess.conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		if !queueOne(o) {
			return false
		}
		for {
			select {
			case next := <-sess.out:
				if !queueOne(next) {
					return false
				}
			default:
				if err := w.Flush(); err != nil {
					return fail()
				}
				return true
			}
		}
	}
	for {
		select {
		case o := <-sess.out:
			if !write(o) {
				return
			}
		case <-sess.closing:
			// Flush the backlog, then sever.
			for {
				select {
				case o := <-sess.out:
					if !write(o) {
						return
					}
				default:
					sess.gone.Store(true)
					sess.hangUp()
					return
				}
			}
		case <-sess.done:
			sess.gone.Store(true)
			return
		}
	}
}
