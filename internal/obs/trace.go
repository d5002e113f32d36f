package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventType names a structured auction event.
type EventType string

// The auction event vocabulary. Producers (internal/platform) emit
// these; /debug/rounds and the JSONL sink expose them.
const (
	EventRoundOpen   EventType = "round_open"
	EventRoundClose  EventType = "round_close"
	EventBidAccepted EventType = "bid_accepted"
	EventBidRejected EventType = "bid_rejected"
	EventAllocation  EventType = "allocation"
	EventPayment     EventType = "payment"
	EventDeparture   EventType = "departure"
	EventSnapshot    EventType = "snapshot"
	EventRestore     EventType = "restore"
	// Completion-lifecycle events: a winner reported its task done, a
	// winner's completion deadline lapsed, its task was re-allocated to
	// a replacement, and an already-issued payment was revoked.
	EventTaskCompleted   EventType = "task_completed"
	EventWinnerDefaulted EventType = "winner_defaulted"
	EventReallocation    EventType = "task_reallocated"
	EventClawback        EventType = "clawback"
	// EventBudgetStage is emitted by the budgeted engine
	// (internal/budget) when a sampling-accept stage opens, with the
	// stage index, allowance, threshold, sample size, and reserved
	// spend in Detail (Amount carries the raw threshold).
	EventBudgetStage EventType = "budget_stage"
)

// Event is one structured trace record. Phone and Task are only
// meaningful for event types that concern a phone or task (IDs are
// 0-based, so their zero value is a real ID; consult Type).
type Event struct {
	Time    time.Time `json:"time"`
	Type    EventType `json:"type"`
	Round   int       `json:"round,omitempty"`
	Slot    int       `json:"slot,omitempty"`
	Phone   int       `json:"phone"`
	Task    int       `json:"task"`
	Cost    float64   `json:"cost,omitempty"`
	Amount  float64   `json:"amount,omitempty"`
	Welfare float64   `json:"welfare,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// Sink consumes trace events off the auction goroutine. WriteEvent is
// called from a single drainer goroutine per Tracer, so sinks need no
// internal locking against the tracer (only against their own readers).
type Sink interface {
	WriteEvent(*Event) error
	Close() error
}

// Tracer records auction events into a bounded lock-free ring buffer
// and forwards them to its sinks through a buffered channel. Emit never
// blocks: when the ring wraps, the oldest event is overwritten and the
// ring-dropped counter increments; when the sink channel is full, the
// event is kept in the ring but not forwarded, and the sink-dropped
// counter increments. A nil *Tracer is a no-op.
type Tracer struct {
	cells []atomic.Pointer[Event]
	mask  uint64

	head        atomic.Uint64 // events ever emitted
	ringDropped atomic.Uint64 // overwritten before a Recent could see them
	sinkDropped atomic.Uint64 // not forwarded because the channel was full

	sinks []Sink
	ch    chan *Event
	quit  chan struct{}
	done  chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// NewTracer creates a tracer whose ring holds the most recent
// `capacity` events (rounded up to a power of two; min 16). Sinks, if
// any, are drained by a background goroutine until Close.
func NewTracer(capacity int, sinks ...Sink) *Tracer {
	size := 16
	for size < capacity {
		size <<= 1
	}
	tr := &Tracer{
		cells: make([]atomic.Pointer[Event], size),
		mask:  uint64(size - 1),
		sinks: sinks,
	}
	if len(sinks) > 0 {
		tr.ch = make(chan *Event, size)
		tr.quit = make(chan struct{})
		tr.done = make(chan struct{})
		go tr.drain()
	}
	return tr
}

// Emit records ev, stamping Time if unset. Never blocks; nil-safe.
func (tr *Tracer) Emit(ev Event) {
	if tr == nil {
		return
	}
	// Copy into a fresh Event rather than take &ev: that would move ev
	// to the heap on entry, before the nil check, so a nil tracer would
	// allocate on every event.
	e := new(Event)
	*e = ev
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	seq := tr.head.Add(1) - 1
	if seq >= uint64(len(tr.cells)) {
		tr.ringDropped.Add(1)
	}
	tr.cells[seq&tr.mask].Store(e)
	if tr.ch != nil {
		select {
		case tr.ch <- e:
		default:
			tr.sinkDropped.Add(1)
		}
	}
}

// drain forwards ring events to the sinks until Close, then flushes
// whatever is still queued and closes the sinks.
func (tr *Tracer) drain() {
	defer close(tr.done)
	write := func(e *Event) {
		for _, s := range tr.sinks {
			s.WriteEvent(e) // a failing sink drops its own events
		}
	}
	for {
		select {
		case e := <-tr.ch:
			write(e)
		case <-tr.quit:
			for {
				select {
				case e := <-tr.ch:
					write(e)
				default:
					for _, s := range tr.sinks {
						if err := s.Close(); err != nil && tr.closeErr == nil {
							tr.closeErr = err
						}
					}
					return
				}
			}
		}
	}
}

// Seq returns the number of events ever emitted.
func (tr *Tracer) Seq() uint64 {
	if tr == nil {
		return 0
	}
	return tr.head.Load()
}

// RingDropped returns how many events were overwritten in the ring
// (oldest-first) before being dumpable.
func (tr *Tracer) RingDropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.ringDropped.Load()
}

// SinkDropped returns how many events were not forwarded to the sinks
// because the hand-off channel was full (the auction is never blocked
// on a slow sink).
func (tr *Tracer) SinkDropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.sinkDropped.Load()
}

// Recent returns up to n of the most recent events, oldest first.
// Reads race benignly with concurrent Emits: each cell swap is an
// atomic pointer store, so every returned event is complete, but an
// event overwritten mid-iteration appears as its newer replacement.
func (tr *Tracer) Recent(n int) []Event {
	if tr == nil || n <= 0 {
		return nil
	}
	head := tr.head.Load()
	avail := head
	if avail > uint64(len(tr.cells)) {
		avail = uint64(len(tr.cells))
	}
	if uint64(n) > avail {
		n = int(avail)
	}
	out := make([]Event, 0, n)
	for seq := head - uint64(n); seq < head; seq++ {
		if e := tr.cells[seq&tr.mask].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// Close stops the drainer after flushing queued events and closes the
// sinks. Events emitted concurrently with Close may or may not reach
// the sinks; the ring remains readable. Safe to call more than once.
func (tr *Tracer) Close() error {
	if tr == nil {
		return nil
	}
	tr.closeOnce.Do(func() {
		if tr.quit != nil {
			close(tr.quit)
			<-tr.done
		}
	})
	return tr.closeErr
}

// MemorySink collects events in memory, for tests.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
	closed bool
}

// WriteEvent implements Sink.
func (m *MemorySink) WriteEvent(e *Event) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events = append(m.events, *e)
	return nil
}

// Close implements Sink.
func (m *MemorySink) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Events returns a copy of everything written so far.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Closed reports whether Close was called (i.e. the tracer flushed).
func (m *MemorySink) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// JSONLSink writes one JSON object per line. Writes are buffered;
// Close flushes and, if the underlying writer is an io.Closer, closes
// it too.
type JSONLSink struct {
	w   io.Writer
	buf *bufio.Writer
	enc *json.Encoder
}

// NewJSONLSink wraps w as a JSON-lines sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	buf := bufio.NewWriter(w)
	return &JSONLSink{w: w, buf: buf, enc: json.NewEncoder(buf)}
}

// WriteEvent implements Sink. json.Encoder terminates each event with
// a newline.
func (s *JSONLSink) WriteEvent(e *Event) error { return s.enc.Encode(e) }

// Close implements Sink.
func (s *JSONLSink) Close() error {
	err := s.buf.Flush()
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
