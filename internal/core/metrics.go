package core

import "dynacrowd/internal/obs"

// Metrics bundles the instruments the mechanism hot paths report into.
// A nil *Metrics disables all instrumentation at zero cost: counter
// updates go through nil-safe obs instruments, and the latency timers
// (the only part that costs anything — time.Now) are gated on a nil
// check. Create one with NewMetrics; the metric catalog is documented
// in docs/OBSERVABILITY.md.
type Metrics struct {
	// SlotAllocSeconds times one greedy allocation unit: a streaming
	// Step's allocation phase.
	SlotAllocSeconds *obs.Histogram
	// PaymentSeconds times one critical-value pricing batch: a Step's
	// departing-winner payments.
	PaymentSeconds *obs.Histogram
	// CascadeCalls counts per-winner cascade payment computations.
	CascadeCalls *obs.Counter
}

// NewMetrics registers the core auction instruments in reg and returns
// the bundle. Registration is idempotent, so auctions sharing a
// registry (e.g. consecutive platform rounds) share counters. A nil
// registry returns nil, the disabled path.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		SlotAllocSeconds: reg.Histogram("dynacrowd_core_slot_alloc_seconds",
			"Latency of one greedy allocation unit: a streaming slot's allocation phase.",
			obs.LatencyBuckets),
		PaymentSeconds: reg.Histogram("dynacrowd_core_payment_seconds",
			"Latency of one critical-value pricing batch: the departing winners of a slot.",
			obs.LatencyBuckets),
		CascadeCalls: reg.Counter("dynacrowd_core_engine_invocations_total",
			"Per-winner critical-value payment computations by engine.",
			"engine", "cascade"),
	}
}

// noteCascade is the nil-safe counter hook called per priced winner.
func (m *Metrics) noteCascade() {
	if m != nil {
		m.CascadeCalls.Inc()
	}
}
