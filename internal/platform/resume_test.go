package platform

import (
	"bytes"
	"errors"
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"

	"dynacrowd/internal/core"
	"dynacrowd/internal/protocol"
)

// TestCheckpointResume: kill the platform mid-round, resume on a fresh
// port, finish the round — the combined outcome equals an uninterrupted
// batch run.
func TestCheckpointResume(t *testing.T) {
	cfg := Config{Slots: 4, Value: 20}
	s1 := newTestServer(t, cfg)

	a1 := dialAgent(t, s1.Addr())
	if err := a1.SubmitBid("early", 4, 5); err != nil {
		t.Fatal(err)
	}
	a2 := dialAgent(t, s1.Addr())
	if err := a2.SubmitBid("rival", 4, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Tick(1); err != nil { // slot 1: both admitted, task to "early"
		t.Fatal(err)
	}
	checkpoint, err := s1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := Resume("127.0.0.1:0", cfg, checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Done() {
		t.Fatal("resumed round already done")
	}

	// A new phone joins the resumed round.
	a3 := dialAgent(t, s2.Addr())
	if err := a3.SubmitBid("late", 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Tick(1); err != nil { // slot 2
		t.Fatal(err)
	}
	for !s2.Done() {
		if _, err := s2.Tick(0); err != nil {
			t.Fatal(err)
		}
	}

	inst := s2.Instance()
	if inst.NumPhones() != 3 || inst.NumTasks() != 2 {
		t.Fatalf("resumed instance has %d phones / %d tasks", inst.NumPhones(), inst.NumTasks())
	}
	batch, err := (&core.OnlineMechanism{}).Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	out := s2.Outcome()
	if math.Abs(out.Welfare-batch.Welfare) > 1e-9 {
		t.Fatalf("resumed welfare %g != batch %g", out.Welfare, batch.Welfare)
	}
	for i := range batch.Payments {
		if math.Abs(out.Payments[i]-batch.Payments[i]) > 1e-9 {
			t.Fatalf("payment[%d]: %g != %g", i, out.Payments[i], batch.Payments[i])
		}
	}
}

func TestResumeRejectsGarbage(t *testing.T) {
	if _, err := Resume("127.0.0.1:0", Config{Slots: 3, Value: 10}, []byte("{broken")); err == nil {
		t.Fatal("want error")
	}
}

// resumeMismatch checkpoints one slot of a round played under written,
// resumes it under resumed, and returns the mismatch Resume reports.
// The slot announces no task, so no decision tells the kinds apart:
// the header is all that can catch the mismatch.
func resumeMismatch(t *testing.T, written, resumed Config) *CheckpointMismatchError {
	t.Helper()
	s := newTestServer(t, written)
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("a", 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(0); err != nil {
		t.Fatal(err)
	}
	checkpoint, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Resume("127.0.0.1:0", resumed, checkpoint)
	var mismatch *CheckpointMismatchError
	if !errors.As(err, &mismatch) {
		if s2 != nil {
			s2.Close()
		}
		t.Fatalf("Resume err = %v, want a CheckpointMismatchError", err)
	}
	return mismatch
}

// TestResumeRejectsLongerRound: a 4-slot checkpoint resumed with Slots
// 40 would accept bids its 4-slot auction rejects at the tick.
func TestResumeRejectsLongerRound(t *testing.T) {
	m := resumeMismatch(t, Config{Slots: 4, Value: 30}, Config{Slots: 40, Value: 30})
	if m.Field != "Slots" || m.Checkpoint != core.Slot(4) || m.Config != core.Slot(40) {
		t.Fatalf("mismatch %+v, want Slots 4 vs 40", m)
	}
}

// TestResumeRejectsDroppedBudget: a budgeted checkpoint resumed without
// a budget would run the round unbudgeted.
func TestResumeRejectsDroppedBudget(t *testing.T) {
	m := resumeMismatch(t, Config{Slots: 4, Value: 30, Budget: 5}, Config{Slots: 4, Value: 30})
	if m.Field != "Budget" || m.Checkpoint != 5.0 || m.Config != 0.0 {
		t.Fatalf("mismatch %+v, want Budget 5 vs 0", m)
	}
}

// TestResumeRejectsOtherBudget: a checkpoint with budget 5 resumed with
// Budget 500 would announce 500 while its auction enforces 5.
func TestResumeRejectsOtherBudget(t *testing.T) {
	m := resumeMismatch(t, Config{Slots: 4, Value: 30, Budget: 5}, Config{Slots: 4, Value: 30, Budget: 500})
	if m.Field != "Budget" || m.Checkpoint != 5.0 || m.Config != 500.0 {
		t.Fatalf("mismatch %+v, want Budget 5 vs 500", m)
	}
}

// TestResumeRejectsOtherHeader covers the remaining fields a checkpoint
// fixes.
func TestResumeRejectsOtherHeader(t *testing.T) {
	online := Config{Slots: 4, Value: 30}
	budgeted := Config{Slots: 4, Value: 30, Budget: 5}
	for _, tc := range []struct {
		field            string
		written, resumed Config
	}{
		{"Value", online, Config{Slots: 4, Value: 31}},
		{"AllocateAtLoss", online, Config{Slots: 4, Value: 30, AllocateAtLoss: true}},
		{"Budget", online, budgeted},
		{"BudgetEngine", budgeted, Config{Slots: 4, Value: 30, Budget: 5, BudgetEngine: "frugal"}},
	} {
		if m := resumeMismatch(t, tc.written, tc.resumed); m.Field != tc.field {
			t.Errorf("%s: mismatch names %s: %v", tc.field, m.Field, m)
		}
	}
}

// TestServerLogging: the structured log captures the auction lifecycle.
func TestServerLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s, err := Listen("127.0.0.1:0", Config{Slots: 2, Value: 10, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("logged", 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(2); err != nil { // one task served, one unserved
		t.Fatal(err)
	}
	if _, err := s.Tick(0); err != nil { // round ends
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"phone admitted", "name=logged",
		"task assigned",
		"tasks unserved", "count=1",
		"payment issued",
		"round complete",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q:\n%s", want, out)
		}
	}
}

// TestServerLoggingProtocolError: garbage from a client is logged.
func TestServerLoggingProtocolError(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s, err := Listen("127.0.0.1:0", Config{Slots: 2, Value: 10, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a := dialAgent(t, s.Addr())
	_ = a.send(&protocol.Message{Type: "warble"})
	// Wait for the error to round-trip.
	ev := <-a.Events()
	if ev.Kind != EventError {
		t.Fatalf("event %v, want error", ev.Kind)
	}
	if !strings.Contains(buf.String(), "protocol error") {
		t.Fatalf("log missing protocol error:\n%s", buf.String())
	}
}

// TestStatsCounters: the operational counters track the round.
func TestStatsCounters(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 10})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("counted", 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := a.SubmitBid("dup", 1, 4); err == nil {
		t.Fatal("duplicate bid accepted")
	}
	if _, err := s.Tick(2); err != nil { // one served, one unserved
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Slot != 1 || st.Connections != 1 || st.LiveConnections != 1 {
		t.Fatalf("connection stats: %+v", st)
	}
	if st.BidsAccepted != 1 || st.BidsRejected != 1 {
		t.Fatalf("bid stats: %+v", st)
	}
	if st.TasksAnnounced != 2 || st.TasksServed != 1 || st.TasksUnserved != 1 {
		t.Fatalf("task stats: %+v", st)
	}
	if st.PaymentsIssued != 1 || st.TotalPaid != 10 {
		t.Fatalf("payment stats: %+v", st)
	}
	a.Close()
	time.Sleep(20 * time.Millisecond)
	if live := s.Stats().LiveConnections; live != 0 {
		t.Fatalf("live connections = %d after close", live)
	}
}
