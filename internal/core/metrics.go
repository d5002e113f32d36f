package core

import (
	"sync/atomic"

	"dynacrowd/internal/obs"
)

// Metrics bundles the instruments the mechanism hot paths report into.
// A nil *Metrics disables all instrumentation at zero cost: counter
// updates go through nil-safe obs instruments, and the latency timers
// (the only part that costs anything — time.Now) are gated on a nil
// check. Create one with NewMetrics; the metric catalog is documented
// in docs/OBSERVABILITY.md.
type Metrics struct {
	// SlotAllocSeconds times one greedy allocation unit: a streaming
	// Step's allocation phase, or a batch run's full baseline pass.
	SlotAllocSeconds *obs.Histogram
	// PaymentSeconds times one critical-value pricing batch: a Step's
	// departing-winner payments, or a batch run's priceAll.
	PaymentSeconds *obs.Histogram
	// CascadeCalls / OracleCalls count per-winner payment computations
	// by engine.
	CascadeCalls *obs.Counter
	OracleCalls  *obs.Counter
}

// NewMetrics registers the core auction instruments in reg and returns
// the bundle. Registration is idempotent, so auctions sharing a
// registry (e.g. consecutive platform rounds) share counters. A nil
// registry returns nil, the disabled path.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		SlotAllocSeconds: reg.Histogram("dynacrowd_core_slot_alloc_seconds",
			"Latency of one greedy allocation unit: a streaming slot's allocation phase or a batch baseline pass.",
			obs.LatencyBuckets),
		PaymentSeconds: reg.Histogram("dynacrowd_core_payment_seconds",
			"Latency of one critical-value pricing batch (departing winners of a slot, or a full round's priceAll).",
			obs.LatencyBuckets),
		CascadeCalls: reg.Counter("dynacrowd_core_engine_invocations_total",
			"Per-winner critical-value payment computations by engine.",
			"engine", "cascade"),
		OracleCalls: reg.Counter("dynacrowd_core_engine_invocations_total",
			"Per-winner critical-value payment computations by engine.",
			"engine", "oracle"),
	}
	reg.CounterFunc("dynacrowd_core_scratch_pool_gets_total",
		"Pooled mechanism scratch checkouts (OnlineMechanism.Run invocations).",
		func() float64 { return float64(scratchPoolGets.Load()) })
	reg.CounterFunc("dynacrowd_core_scratch_pool_misses_total",
		"Scratch checkouts that had to allocate a fresh working set (pool cold or under concurrent pressure).",
		func() float64 { return float64(scratchPoolMisses.Load()) })
	return m
}

// noteCascade/noteOracle are the nil-safe engine-counter
// hooks the payment engines call per priced winner.
func (m *Metrics) noteCascade() {
	if m != nil {
		m.CascadeCalls.Inc()
	}
}

func (m *Metrics) noteOracle() {
	if m != nil {
		m.OracleCalls.Inc()
	}
}

// scratchPoolGets / scratchPoolMisses tally mechPool traffic process-
// wide. They are plain atomics (not registry instruments) because the
// pool is package-global: the counters are always maintained, and
// NewMetrics bridges them into any registry via CounterFunc without
// double accounting.
var (
	scratchPoolGets   atomic.Uint64
	scratchPoolMisses atomic.Uint64
)

// defaultMetrics instruments OnlineMechanism values that have no
// explicit Metrics field set — the process-wide hook commands use when
// mechanisms are constructed deep inside sweeps.
var defaultMetrics atomic.Pointer[Metrics]

// SetDefaultMetrics installs the process-wide default instrument bundle
// used by OnlineMechanism.Run when the mechanism's Metrics field is
// nil. Pass nil to disable. Typically called once at startup (it is
// safe, but pointless, to call concurrently with running mechanisms).
func SetDefaultMetrics(m *Metrics) { defaultMetrics.Store(m) }
