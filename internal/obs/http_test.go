package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHTTPServerEndpoints(t *testing.T) {
	o, err := New(Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.Registry.Counter("demo_total", "Demo.").Add(5)
	o.Tracer.Emit(Event{Type: EventRoundOpen, Round: 1})
	o.Tracer.Emit(Event{Type: EventPayment, Phone: 2, Amount: 30, Slot: 4, Round: 1})

	base := "http://" + o.HTTP.Addr()

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"demo_total 5",
		"dynacrowd_trace_events_total 2",
		"dynacrowd_trace_ring_dropped_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, base+"/debug/rounds?n=10")
	if code != http.StatusOK {
		t.Fatalf("/debug/rounds = %d", code)
	}
	var dump struct {
		Emitted uint64  `json:"emitted"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("bad /debug/rounds JSON: %v\n%s", err, body)
	}
	if dump.Emitted != 2 || len(dump.Events) != 2 {
		t.Fatalf("dump = %+v", dump)
	}
	if dump.Events[1].Type != EventPayment || dump.Events[1].Amount != 30 {
		t.Fatalf("dump events = %+v", dump.Events)
	}

	if code, _ := get(t, base+"/debug/rounds?n=junk"); code != http.StatusBadRequest {
		t.Fatalf("bad n accepted: %d", code)
	}
	if code, body := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

// TestHTTPServerCloseStopsServing verifies the graceful shutdown path:
// Close returns only after the serve goroutine has exited and the
// listener no longer accepts.
func TestHTTPServerCloseStopsServing(t *testing.T) {
	o, err := New(Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := o.HTTP.Addr()
	if code, _ := get(t, fmt.Sprintf("http://%s/healthz", addr)); code != http.StatusOK {
		t.Fatal("server not serving before Close")
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("server still serving after Close")
	}
	if err := o.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}
