package chaos

import "sync/atomic"

// Counters tallies the faults a Plan actually injected, summed across
// every connection sharing the Plan (the fields are atomics, so wrapped
// connections on different goroutines report without coordination).
// Attach one via Plan.Counters; a nil pointer disables counting.
type Counters struct {
	Latencies     atomic.Uint64 // latency rolls that fired and slept
	StalledReads  atomic.Uint64 // Reads parked until connection close
	StalledWrites atomic.Uint64 // Writes parked until connection close
	Truncates     atomic.Uint64 // torn frames: prefix delivered, then cut
	Disconnects   atomic.Uint64 // clean cuts (probabilistic or scripted)
}

// The nil-safe per-fault hooks the connection wrapper calls.
func (k *Counters) noteLatency() {
	if k != nil {
		k.Latencies.Add(1)
	}
}

func (k *Counters) noteStalledRead() {
	if k != nil {
		k.StalledReads.Add(1)
	}
}

func (k *Counters) noteStalledWrite() {
	if k != nil {
		k.StalledWrites.Add(1)
	}
}

func (k *Counters) noteTruncate() {
	if k != nil {
		k.Truncates.Add(1)
	}
}

func (k *Counters) noteDisconnect() {
	if k != nil {
		k.Disconnects.Add(1)
	}
}
