package chaos

import (
	"net"
	"testing"
	"time"
)

// pipeConn returns one end of an in-memory duplex with a reader that
// drains the other end, plus a cleanup.
func pipeConn(t *testing.T) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go func() {
		buf := make([]byte, 256)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	return a
}

// TestCountersTally: each injected fault class increments its counter.
func TestCountersTally(t *testing.T) {
	k := &Counters{}

	// Scripted disconnect after 2 writes.
	c := WrapConn(pipeConn(t), Plan{CutAfterWrites: 2, Counters: k}, 1)
	if _, err := c.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("two")); err == nil {
		t.Fatal("want injected disconnect on second write")
	}
	if k.Disconnects.Load() != 1 {
		t.Fatalf("disconnects = %d, want 1", k.Disconnects.Load())
	}

	// Certain truncation tears the very first multi-byte frame.
	c = WrapConn(pipeConn(t), Plan{TruncateProb: 1, Counters: k}, 2)
	if _, err := c.Write([]byte("payload")); err == nil {
		t.Fatal("want injected truncate")
	}
	if k.Truncates.Load() != 1 {
		t.Fatalf("truncates = %d, want 1", k.Truncates.Load())
	}

	// Certain latency on one write.
	c = WrapConn(pipeConn(t), Plan{LatencyProb: 1, MaxLatency: time.Microsecond, Counters: k}, 3)
	if _, err := c.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if k.Latencies.Load() == 0 {
		t.Fatal("latency injection not counted")
	}

	// Stalled read and write, released by Close.
	c = WrapConn(pipeConn(t), Plan{StallReads: true, StallWrites: true, Counters: k}, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Read(make([]byte, 8))
		c.Write([]byte("never"))
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	<-done
	if k.StalledReads.Load() != 1 || k.StalledWrites.Load() != 1 {
		t.Fatalf("stalls = %d reads / %d writes, want 1 each",
			k.StalledReads.Load(), k.StalledWrites.Load())
	}

	// A Plan without Counters injects faults uncounted.
	c = WrapConn(pipeConn(t), Plan{TruncateProb: 1}, 5)
	if _, err := c.Write([]byte("payload")); err == nil {
		t.Fatal("want injected truncate")
	}
}
