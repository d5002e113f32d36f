package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestTracerRingOverflow pins the ring's overflow semantics: the ring
// keeps the newest `capacity` events, the oldest are dropped, and the
// dropped counter counts exactly the overwritten ones.
func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(16) // no sinks
	for i := 0; i < 40; i++ {
		tr.Emit(Event{Type: EventAllocation, Task: i})
	}
	if got := tr.Seq(); got != 40 {
		t.Fatalf("Seq = %d, want 40", got)
	}
	if got := tr.RingDropped(); got != 24 {
		t.Fatalf("RingDropped = %d, want 24 (40 emitted - 16 capacity)", got)
	}
	recent := tr.Recent(100)
	if len(recent) != 16 {
		t.Fatalf("Recent returned %d events, want the full ring of 16", len(recent))
	}
	for k, ev := range recent {
		if want := 24 + k; ev.Task != want {
			t.Fatalf("recent[%d].Task = %d, want %d (oldest dropped first)", k, ev.Task, want)
		}
	}
	if got := tr.Recent(4); len(got) != 4 || got[3].Task != 39 {
		t.Fatalf("Recent(4) = %+v, want the newest 4 ending at 39", got)
	}
}

// TestNilTracerEmitAllocFree pins the disabled path: the platform and
// the budget engine emit on every bid and stage with a nil tracer, so
// Emit on nil must not allocate.
func TestNilTracerEmitAllocFree(t *testing.T) {
	var tr *Tracer
	ev := Event{Type: EventPayment, Round: 2, Slot: 7, Phone: 3, Amount: 12.5, Detail: "cap"}
	if n := testing.AllocsPerRun(100, func() { tr.Emit(ev) }); n != 0 {
		t.Fatalf("nil tracer Emit allocates %v times per event, want 0", n)
	}
}

func TestTracerStampsTime(t *testing.T) {
	tr := NewTracer(16)
	before := time.Now()
	tr.Emit(Event{Type: EventPayment})
	ev := tr.Recent(1)[0]
	if ev.Time.Before(before) || time.Since(ev.Time) > time.Minute {
		t.Fatalf("Emit did not stamp a sane time: %v", ev.Time)
	}
	explicit := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr.Emit(Event{Type: EventPayment, Time: explicit})
	if got := tr.Recent(1)[0].Time; !got.Equal(explicit) {
		t.Fatalf("explicit time overwritten: %v", got)
	}
}

func TestTracerSinkDelivery(t *testing.T) {
	mem := &MemorySink{}
	tr := NewTracer(64, mem)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Type: EventBidAccepted, Phone: i})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	evs := mem.Events()
	if len(evs) != 10 {
		t.Fatalf("sink saw %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Phone != i {
			t.Fatalf("sink event %d has phone %d", i, ev.Phone)
		}
	}
	if !mem.Closed() {
		t.Fatal("tracer Close must close its sinks")
	}
	if err := tr.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}

// blockingSink blocks every write until released, simulating a wedged
// file or pipe.
type blockingSink struct {
	release chan struct{}
	wrote   chan struct{} // signals the first write started
	once    sync.Once
}

func (b *blockingSink) WriteEvent(*Event) error {
	b.once.Do(func() { close(b.wrote) })
	<-b.release
	return nil
}
func (b *blockingSink) Close() error { return nil }

// TestTracerNeverBlocksOnSlowSink: a wedged sink must not stall Emit —
// events overflow the hand-off channel, the sink-dropped counter
// increments, and the ring still records everything.
func TestTracerNeverBlocksOnSlowSink(t *testing.T) {
	sink := &blockingSink{release: make(chan struct{}), wrote: make(chan struct{})}
	tr := NewTracer(16, sink) // channel capacity == ring size (16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 1 being written (wedged) + 16 queued + the rest dropped.
		for i := 0; i < 100; i++ {
			tr.Emit(Event{Type: EventAllocation, Task: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a wedged sink")
	}
	<-sink.wrote
	if got := tr.SinkDropped(); got == 0 {
		t.Fatal("sink-dropped counter did not increment")
	}
	if got := tr.Seq(); got != 100 {
		t.Fatalf("ring Seq = %d, want all 100 recorded", got)
	}
	close(sink.release)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTracerConcurrentEmit exercises the lock-free ring under the race
// detector: concurrent emitters and readers.
func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(Event{Type: EventPayment, Phone: w, Task: i})
			}
		}(w)
	}
	for rdr := 0; rdr < 2; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, ev := range tr.Recent(64) {
					if ev.Type != EventPayment {
						t.Error("torn event read")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := tr.Seq(); got != 2000 {
		t.Fatalf("Seq = %d, want 2000", got)
	}
	if got := tr.RingDropped(); got != 2000-64 {
		t.Fatalf("RingDropped = %d, want %d", got, 2000-64)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(16, sink)
	tr.Emit(Event{Type: EventPayment, Phone: 3, Amount: 12.5, Slot: 7, Round: 1})
	tr.Emit(Event{Type: EventRoundClose, Round: 1, Welfare: 99})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var ev Event
	if err := json.Unmarshal(lines[0], &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != EventPayment || ev.Phone != 3 || ev.Amount != 12.5 || ev.Slot != 7 {
		t.Fatalf("decoded %+v", ev)
	}
}
