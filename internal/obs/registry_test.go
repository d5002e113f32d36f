package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var (
		c  *Counter
		fc *FloatCounter
		g  *Gauge
		fg *FloatGauge
		h  *Histogram
		r  *Registry
		o  *Observability
		tr *Tracer
	)
	c.Inc()
	c.Add(5)
	fc.Add(1.5)
	g.Set(3)
	g.Add(-1)
	fg.Set(2)
	fg.Add(1)
	h.Observe(0.1)
	if c.Value() != 0 || fc.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Counter("x", "") != nil || r.Histogram("y", "", LatencyBuckets) != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
	tr.Emit(Event{Type: EventPayment})
	if tr.Recent(10) != nil || tr.Seq() != 0 {
		t.Fatal("nil tracer must be inert")
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRendersPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.").Add(7)
	r.FloatCounter("app_paid_total", "Money out the door.").Add(12.5)
	r.Gauge("app_queue_depth", "Queued items.").Set(3)
	r.FloatGauge("app_round_welfare", "Welfare this round.").Set(41)
	r.GaugeFunc("app_live", "Live things.", func() float64 { return 2 })
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# HELP app_requests_total Requests served.\n# TYPE app_requests_total counter\napp_requests_total 7\n",
		"app_paid_total 12.5\n",
		"# TYPE app_queue_depth gauge\napp_queue_depth 3\n",
		"app_round_welfare 41\n",
		"app_live 2\n",
		"# TYPE app_latency_seconds histogram\n",
		"app_latency_seconds_bucket{le=\"0.1\"} 1\n",
		"app_latency_seconds_bucket{le=\"1\"} 2\n",
		"app_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"app_latency_seconds_sum 5.55\n",
		"app_latency_seconds_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\nfull output:\n%s", want, got)
		}
	}
}

func TestRegistryLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_calls_total", "Engine calls.", "engine", "cascade").Add(2)
	r.Counter("engine_calls_total", "Engine calls.", "engine", "oracle").Inc()
	h := r.Histogram("op_seconds", "Op latency.", []float64{1}, "op", "tick")
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`engine_calls_total{engine="cascade"} 2`,
		`engine_calls_total{engine="oracle"} 1`,
		`op_seconds_bucket{op="tick",le="1"} 1`,
		`op_seconds_sum{op="tick"} 0.5`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\nfull output:\n%s", want, got)
		}
	}
	// HELP/TYPE headers are emitted once per family, not per label set.
	if n := strings.Count(got, "# TYPE engine_calls_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1", n)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "h")
	b := r.Counter("same_total", "h")
	if a != b {
		t.Fatal("re-registration must return the same instrument")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatal("instruments not shared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("same_total", "h")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "h", []float64{1, 2})
	h.Observe(1)           // on the boundary: le="1" is inclusive
	h.Observe(1.5)         // le="2"
	h.Observe(3)           // +Inf
	h.Observe(math.Inf(1)) // +Inf
	var sb strings.Builder
	r.WritePrometheus(&sb)
	got := sb.String()
	for _, want := range []string{
		`b_seconds_bucket{le="1"} 1`,
		`b_seconds_bucket{le="2"} 2`,
		`b_seconds_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

// TestRegistryConcurrentUse exercises registration, updates, and
// scrapes under the race detector.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc_total", "h")
			h := r.Histogram("conc_seconds", "h", LatencyBuckets)
			g := r.Gauge("conc_depth", "h")
			fc := r.FloatCounter("conc_paid_total", "h")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				g.Add(1)
				fc.Add(0.25)
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			for i := 0; i < 50; i++ {
				sb.Reset()
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "h").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("conc_seconds", "h", LatencyBuckets).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
