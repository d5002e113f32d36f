package obs

import "sync"

// Options configures New.
type Options struct {
	// Addr is the HTTP introspection listen address; "" disables the
	// HTTP server (the registry and tracer still work in-process).
	Addr string
	// Sinks receive every traced event via the tracer's drainer
	// goroutine (e.g. a JSONL file). Closed by Observability.Close.
	Sinks []Sink
}

// ringSize is how many recent trace events New's tracer keeps for
// /debug/rounds.
const ringSize = 4096

// Observability bundles one deployment's metrics registry, event
// tracer, and optional HTTP server, with a single graceful Close. Close
// on a nil *Observability does nothing.
type Observability struct {
	Registry *Registry
	Tracer   *Tracer
	HTTP     *HTTPServer // nil unless Options.Addr was set

	closeOnce sync.Once
	closeErr  error
}

// New builds an Observability: a fresh registry, a tracer over the
// given sinks, self-describing trace metrics, and (if opt.Addr is set)
// a running HTTP server.
func New(opt Options) (*Observability, error) {
	reg := NewRegistry()
	tr := NewTracer(ringSize, opt.Sinks...)
	reg.CounterFunc("dynacrowd_trace_events_total",
		"Auction trace events emitted.",
		func() float64 { return float64(tr.Seq()) })
	reg.CounterFunc("dynacrowd_trace_ring_dropped_total",
		"Trace events overwritten in the ring before being dumped (oldest dropped first).",
		func() float64 { return float64(tr.RingDropped()) })
	reg.CounterFunc("dynacrowd_trace_sink_dropped_total",
		"Trace events not forwarded to sinks because the hand-off channel was full.",
		func() float64 { return float64(tr.SinkDropped()) })

	o := &Observability{Registry: reg, Tracer: tr}
	if opt.Addr != "" {
		h, err := ListenHTTP(opt.Addr, reg, tr)
		if err != nil {
			tr.Close()
			return nil, err
		}
		o.HTTP = h
	}
	return o, nil
}

// Close stops the HTTP server (bounded by a deadline) and closes the
// tracer, flushing its sinks. Idempotent and nil-safe; the first error
// wins.
func (o *Observability) Close() error {
	if o == nil {
		return nil
	}
	o.closeOnce.Do(func() {
		if err := o.HTTP.Close(); err != nil {
			o.closeErr = err
		}
		if err := o.Tracer.Close(); err != nil && o.closeErr == nil {
			o.closeErr = err
		}
	})
	return o.closeErr
}
