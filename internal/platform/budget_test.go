package platform

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/obs"
)

// TestBudgetConfigValidation pins the typed rejection of bad budget
// knobs at Listen time.
func TestBudgetConfigValidation(t *testing.T) {
	base := Config{Slots: 4, Value: 10}
	bad := []struct {
		name string
		mut  func(*Config)
		want error
	}{
		{"negative", func(c *Config) { c.Budget = -3 }, budget.ErrInvalidBudget},
		{"nan-rejected-by-engine", func(c *Config) { c.Budget = 5; c.BudgetEngine = "simplex" }, nil},
		{"with-completions", func(c *Config) { c.Budget = 5; c.CompletionDeadline = 2 }, ErrBudgetIncompatible},
	}
	for _, tc := range bad {
		cfg := base
		tc.mut(&cfg)
		_, err := Listen("127.0.0.1:0", cfg)
		if err == nil {
			t.Errorf("%s: config accepted", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestBudgetedRoundEndToEnd runs the Fig-5-style counterexample script
// through a live budgeted platform: the state message advertises the
// budget, total payments respect it, winners are paid at least their
// cost, and the end message carries the budget.
func TestBudgetedRoundEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 30, Budget: 40})
	agents := make([]*Agent, 3)
	for i := range agents {
		agents[i] = dialAgent(t, s.Addr())
	}
	st, err := agents[0].Hello()
	if err != nil {
		t.Fatal(err)
	}
	if st.Budget != 40 {
		t.Fatalf("state budget %g, want 40", st.Budget)
	}

	// The instance of TestBudgetEnginesPassCounterexample, live:
	// phones (window, cost): 0:[1,2]c4, 1:[1,2]c5, 2:[2,2]c8;
	// tasks: two in slot 1, one in slot 2.
	if err := agents[0].SubmitBid("a", 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := agents[1].SubmitBid("b", 2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(2); err != nil {
		t.Fatal(err)
	}
	if err := agents[2].SubmitBid("c", 1, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("round should be over")
	}

	costs := []float64{4, 5, 8}
	var total float64
	for i, a := range agents {
		var paid float64
		for ev := range a.Events() {
			switch ev.Kind {
			case EventPayment:
				paid += ev.Amount
			case EventEnd:
				if ev.Payments > 40+1e-9 {
					t.Fatalf("end reports %g paid, over budget", ev.Payments)
				}
			case EventError:
				t.Fatalf("agent %d: %v", i, ev.Err)
			}
			if ev.Kind == EventEnd {
				a.Close()
			}
		}
		if paid > 0 && paid < costs[i]-1e-9 {
			t.Errorf("phone %d paid %g below cost %g", i, paid, costs[i])
		}
		total += paid
	}
	if total > 40+1e-9 {
		t.Fatalf("total paid %g exceeds budget 40", total)
	}
	if total == 0 {
		t.Fatal("budgeted round paid nobody; the gates are over-tight")
	}
}

// TestBudgetedBidRejectedWhenExhausted drives a tiny budgeted round to
// full commitment and checks the platform refuses further bids with the
// typed budget-exhausted reason.
func TestBudgetedBidRejectedWhenExhausted(t *testing.T) {
	// m=4 → stages end 1,2,4 with allowances B/4, B/2, B. A lone cheap
	// phone is allowance-blocked in stages 1–2 (its exclude-self sample
	// is empty, so its cap is the non-binding ν = B), then wins in slot
	// 3 reserving the full budget — exhaustion with one slot to spare.
	s := newTestServer(t, Config{Slots: 4, Value: 30, Budget: 30})
	first := dialAgent(t, s.Addr())
	if err := first.SubmitBid("first", 4, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	waitEvent(t, first, EventAssign)

	late := dialAgent(t, s.Addr())
	err := late.SubmitBid("late", 1, 1)
	if err == nil {
		t.Fatal("bid accepted after the budget was fully committed")
	}
	if !strings.Contains(err.Error(), "budget") || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("rejection reason %q does not name the exhausted budget", err)
	}
}

// TestBudgetedCheckpointResume checkpoints a budgeted round mid-stage,
// resumes it on a fresh server, and finishes the round; the budgeted
// engine and its stage state must survive the trip.
func TestBudgetedCheckpointResume(t *testing.T) {
	cfg := Config{Slots: 4, Value: 30, Budget: 16}
	s := newTestServer(t, cfg)
	a := dialAgent(t, s.Addr())
	b := dialAgent(t, s.Addr())
	if err := a.SubmitBid("a", 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitBid("b", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil { // slot 1: allowance too tight, no win
		t.Fatal(err)
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Resume("127.0.0.1:0", cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ra, ok := s2.auction.(*budget.Auction)
	if !ok {
		t.Fatalf("resumed auction is %T, not budgeted", s2.auction)
	}
	if ra.Now() != 1 || ra.Budget() != 16 {
		t.Fatalf("resumed clock %d budget %g", ra.Now(), ra.Budget())
	}
	for ra.Now() < cfg.Slots {
		if _, err := s2.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	out := ra.Outcome()
	if got := out.TotalPayment(); got > 16+1e-9 {
		t.Fatalf("resumed round paid %g over budget 16", got)
	}
	if out.Allocation.NumServed() == 0 {
		t.Fatal("resumed round served nothing")
	}
}

// TestBudgetObservabilityWiring checks the platform attaches the budget
// instrument bundle and the stage trace events to a budgeted round.
func TestBudgetObservabilityWiring(t *testing.T) {
	sink := &obs.MemorySink{}
	o := &obs.Observability{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(256, sink)}
	s := newTestServer(t, Config{Slots: 4, Value: 30, Budget: 16, Obs: o})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("a", 4, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	var buf bytes.Buffer
	if err := o.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dynacrowd_budget_") {
		t.Fatalf("no dynacrowd_budget_* metrics registered:\n%s", buf.String())
	}
	var stages int
	for _, ev := range sink.Events() {
		if ev.Type == obs.EventBudgetStage {
			stages++
		}
	}
	if stages == 0 {
		t.Fatal("no budget_stage trace events reached the sink")
	}
}

// TestBudgetResumeRejectsCompletions pins the Resume half of the
// Budget+CompletionDeadline rejection: the restored budgeted auction has
// no completion lifecycle, so the resumed server must refuse to start.
func TestBudgetResumeRejectsCompletions(t *testing.T) {
	cfg := Config{Slots: 4, Value: 30, Budget: 16}
	s := newTestServer(t, cfg)
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("a", 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg.CompletionDeadline = 2
	if s2, err := Resume("127.0.0.1:0", cfg, snap); !errors.Is(err, ErrBudgetIncompatible) {
		if s2 != nil {
			s2.Close()
		}
		t.Fatalf("Resume err = %v, want ErrBudgetIncompatible", err)
	}
}
