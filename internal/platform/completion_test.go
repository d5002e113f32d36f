package platform

import (
	"math"
	"net"
	"strings"
	"testing"

	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/protocol"
)

// readReply reads messages until an ack or error arrives, skipping
// state replays (welcome, assign, payment) a resume interleaves.
func readReply(t *testing.T, conn net.Conn, r *protocol.Reader) *protocol.Message {
	t.Helper()
	for {
		m := readMsg(t, conn, r)
		if m.Type == protocol.TypeAck || m.Type == protocol.TypeError {
			return m
		}
	}
}

// TestCompletionReportLifecycle: the happy path over the wire. A winner
// reports its task done, is paid at departure, and the round closes
// with completion counters reflecting exactly one delivery.
func TestCompletionReportLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 10, CompletionDeadline: 2})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("dutiful", 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil { // slot 1: admitted + assigned
		t.Fatal(err)
	}
	waitEvent(t, a, EventAssign)
	if err := a.ReportCompletion(); err != nil {
		t.Fatal(err)
	}
	// A second report has nothing left to complete: the agent knows
	// locally, without a round trip.
	if err := a.ReportCompletion(); err == nil || !strings.Contains(err.Error(), "no unresolved assignment") {
		t.Fatalf("second ReportCompletion: %v", err)
	}
	if _, err := s.Tick(0); err != nil { // slot 2: departure, payment
		t.Fatal(err)
	}
	pay := waitEvent(t, a, EventPayment)
	if pay.Amount != 10 {
		t.Fatalf("payment = %+v, want reserve 10", pay)
	}
	if _, err := s.Tick(0); err != nil { // slot 3: round ends
		t.Fatal(err)
	}
	waitEvent(t, a, EventEnd)
	if !s.Done() {
		t.Fatal("server not done after final slot with no outstanding tasks")
	}
	st := s.Stats()
	if st.CompletionsReported != 1 || st.WinnersDefaulted != 0 || st.ClawbacksIssued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCompletionRejectionSurfaces scripts every refusal path at the
// wire level: each misuse draws a typed error naming the reason, bumps
// CompletionsRejected, and leaves the round undisturbed.
func TestCompletionRejectionSurfaces(t *testing.T) {
	// Tracking disabled: the report is refused outright.
	off := newTestServer(t, Config{Slots: 2, Value: 10})
	conn, r, w := rawConn(t, off.Addr())
	if err := w.Send(&protocol.Message{Type: protocol.TypeComplete, Phone: 0, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if m := readReply(t, conn, r); m.Type != protocol.TypeError || !strings.Contains(m.Error, core.ErrNotTracking.Error()) {
		t.Fatalf("tracking-off reply = %+v", m)
	}
	if st := off.Stats(); st.CompletionsRejected != 1 {
		t.Fatalf("CompletionsRejected = %d, want 1", st.CompletionsRejected)
	}

	s := newTestServer(t, Config{Slots: 4, Value: 10, CompletionDeadline: 3})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("winner", 3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, a, EventAssign)

	conn, r, w = rawConn(t, s.Addr())
	send := func(m *protocol.Message) *protocol.Message {
		t.Helper()
		if err := w.Send(m); err != nil {
			t.Fatal(err)
		}
		return readReply(t, conn, r)
	}
	// Stale round.
	if m := send(&protocol.Message{Type: protocol.TypeComplete, Phone: 0, Round: 7}); m.Type != protocol.TypeError || !strings.Contains(m.Error, "round") {
		t.Fatalf("stale-round reply = %+v", m)
	}
	// Unknown phone.
	if m := send(&protocol.Message{Type: protocol.TypeComplete, Phone: 9, Round: 1}); m.Type != protocol.TypeError || !strings.Contains(m.Error, "unknown phone") {
		t.Fatalf("unknown-phone reply = %+v", m)
	}
	// Right phone, wrong connection: completion reports cannot be forged
	// from a session the phone is not attached to.
	if m := send(&protocol.Message{Type: protocol.TypeComplete, Phone: 0, Task: 0, Round: 1}); m.Type != protocol.TypeError || !strings.Contains(m.Error, "resume first") {
		t.Fatalf("unattached reply = %+v", m)
	}

	// Attach via resume, then exercise the in-auction refusals.
	if err := w.Send(&protocol.Message{Type: protocol.TypeResume, Phone: 0, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if m := readMsg(t, conn, r); m.Type != protocol.TypeWelcome {
		t.Fatalf("resume welcome = %+v", m)
	}
	if m := readMsg(t, conn, r); m.Type != protocol.TypeAssign {
		t.Fatalf("resume assign replay = %+v", m)
	}
	// Task mismatch.
	if m := send(&protocol.Message{Type: protocol.TypeComplete, Phone: 0, Task: 7, Round: 1}); m.Type != protocol.TypeError || !strings.Contains(m.Error, "holds task") {
		t.Fatalf("task-mismatch reply = %+v", m)
	}
	// The genuine report is accepted...
	if m := send(&protocol.Message{Type: protocol.TypeComplete, Phone: 0, Task: 0, Round: 1}); m.Type != protocol.TypeAck {
		t.Fatalf("genuine report reply = %+v", m)
	}
	// ...and a duplicate is the typed already-completed refusal.
	if m := send(&protocol.Message{Type: protocol.TypeComplete, Phone: 0, Task: 0, Round: 1}); m.Type != protocol.TypeError || !strings.Contains(m.Error, core.ErrAlreadyCompleted.Error()) {
		t.Fatalf("duplicate report reply = %+v", m)
	}

	st := s.Stats()
	if st.CompletionsRejected != 5 || st.CompletionsReported != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WinnersDefaulted != 0 {
		t.Fatalf("rejections perturbed the round: %+v", st)
	}
}

// TestDefaultClawbackReallocationOverWire: a winner is paid at its
// departure, stays silent past the completion deadline, and is
// defaulted — the payment is clawed back over the wire, the task moves
// to the standby bidder, and the books balance at round end.
func TestDefaultClawbackReallocationOverWire(t *testing.T) {
	s := newTestServer(t, Config{Slots: 4, Value: 10, CompletionDeadline: 1})
	flaky := dialAgent(t, s.Addr())
	backup := dialAgent(t, s.Addr())
	if err := flaky.SubmitBid("flaky", 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := backup.SubmitBid("backup", 4, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil { // slot 1: flaky wins, departs, is paid
		t.Fatal(err)
	}
	pay := waitEvent(t, flaky, EventPayment)
	if pay.Amount != 6 {
		t.Fatalf("winner paid %g, want critical value 6 (backup's cost)", pay.Amount)
	}

	// flaky never reports. Its deadline (assignment slot 1 + 1) lapses
	// at the slot-2 tick: defaulted, clawed back, task re-allocated.
	if _, err := s.Tick(0); err != nil {
		t.Fatal(err)
	}
	cb := waitEvent(t, flaky, EventClawback)
	if cb.Amount != 6 {
		t.Fatalf("clawback = %+v, want the issued 6 revoked", cb)
	}
	asg := waitEvent(t, backup, EventAssign)
	if asg.Task != 0 {
		t.Fatalf("re-allocated assign = %+v", asg)
	}
	if err := backup.ReportCompletion(); err != nil {
		t.Fatal(err)
	}

	for !s.Done() {
		if _, err := s.Tick(0); err != nil {
			t.Fatal(err)
		}
	}
	pay = waitEvent(t, backup, EventPayment)
	if pay.Amount != 10 {
		t.Fatalf("replacement paid %g, want reserve 10 (no competitor left)", pay.Amount)
	}
	waitEvent(t, backup, EventEnd)

	st := s.Stats()
	if st.WinnersDefaulted != 1 || st.TasksReallocated != 1 || st.ClawbacksIssued != 1 || st.ClawbackTotal != 6 {
		t.Fatalf("stats = %+v", st)
	}
	out := s.Outcome()
	if out.Payments[0] != 0 {
		t.Fatalf("defaulted phone nets %g", out.Payments[0])
	}
	// Conservation: everything issued minus everything revoked is what
	// the final books say the round cost.
	if got := st.TotalPaid - st.ClawbackTotal; math.Abs(got-out.TotalPayment()) > 1e-9 {
		t.Fatalf("issued−revoked = %g, outcome total = %g", got, out.TotalPayment())
	}
}

// TestResumeAfterCompleteReplaysPayment: a winner that completes, loses
// its connection, and is paid while away learns the executed payment on
// resume — an issued payment is never silently lost to a disconnect.
func TestResumeAfterCompleteReplaysPayment(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3, Value: 10, CompletionDeadline: 2})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("ghost", 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, a, EventAssign)
	if err := a.ReportCompletion(); err != nil {
		t.Fatal(err)
	}
	a.Close() // gone before the payment

	if _, err := s.Tick(0); err != nil { // slot 2: departure pays a dead session
		t.Fatal(err)
	}

	conn, r, w := rawConn(t, s.Addr())
	if err := w.Send(&protocol.Message{Type: protocol.TypeResume, Phone: 0, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if m := readMsg(t, conn, r); m.Type != protocol.TypeWelcome || m.Phone != 0 {
		t.Fatalf("resume welcome = %+v", m)
	}
	if m := readMsg(t, conn, r); m.Type != protocol.TypeAssign || m.Task != 0 || m.Slot != 1 {
		t.Fatalf("resume assign replay = %+v", m)
	}
	pay := readMsg(t, conn, r)
	if pay.Type != protocol.TypePayment || pay.Amount != 10 || pay.Slot != 2 {
		t.Fatalf("resume payment replay = %+v, want the executed 10 at slot 2", pay)
	}
}

// TestMidRoundResumePricesNothing: in a completion-tracked round the
// lifecycle, not the outcome, says what a resumed phone is owed, so a
// resume before the round ends prices no winner: the cascade counter
// stands still across it, with an undeparted winner to price.
func TestMidRoundResumePricesNothing(t *testing.T) {
	o, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Slots: 4, Value: 10, CompletionDeadline: 3, Obs: o})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("away", 4, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil { // slot 1: wins, departs at slot 4
		t.Fatal(err)
	}
	waitEvent(t, a, EventAssign)
	cascade := func() float64 {
		t.Helper()
		var b strings.Builder
		if err := o.Registry.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return metricValue(t, b.String(), `dynacrowd_core_engine_invocations_total{engine="cascade"}`)
	}
	before := cascade()

	conn, r, w := rawConn(t, s.Addr())
	if err := w.Send(&protocol.Message{Type: protocol.TypeResume, Phone: 0, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if m := readMsg(t, conn, r); m.Type != protocol.TypeWelcome {
		t.Fatalf("resume welcome = %+v", m)
	}
	if m := readMsg(t, conn, r); m.Type != protocol.TypeAssign || m.Task != 0 {
		t.Fatalf("resume assign replay = %+v", m)
	}
	if after := cascade(); after != before {
		t.Fatalf("a mid-round resume priced %g winners", after-before)
	}
}

// TestResumeAfterDefaultReplaysClawback: the mirror image — a phone that
// was defaulted while away learns on resume that its payment (if any)
// is revoked, not that it still holds the task.
func TestResumeAfterDefaultReplaysClawback(t *testing.T) {
	s := newTestServer(t, Config{Slots: 4, Value: 10, CompletionDeadline: 1})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("vanisher", 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil { // wins, departs, is paid the reserve
		t.Fatal(err)
	}
	waitEvent(t, a, EventPayment)
	a.Close()

	if _, err := s.Tick(0); err != nil { // deadline lapses: defaulted while away
		t.Fatal(err)
	}

	conn, r, w := rawConn(t, s.Addr())
	if err := w.Send(&protocol.Message{Type: protocol.TypeResume, Phone: 0, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if m := readMsg(t, conn, r); m.Type != protocol.TypeWelcome {
		t.Fatalf("resume welcome = %+v", m)
	}
	cb := readMsg(t, conn, r)
	if cb.Type != protocol.TypeClawback || cb.Amount != 10 {
		t.Fatalf("resume clawback replay = %+v, want the revoked 10", cb)
	}
}

// TestDrainExtendsRoundForOutstandingTasks: the final slot's winner
// still has its completion window open when the stream ends; the round
// must not close until the window resolves, and a silent winner is
// defaulted on a virtual drain tick.
func TestDrainExtendsRoundForOutstandingTasks(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Value: 10, CompletionDeadline: 2})
	a := dialAgent(t, s.Addr())
	if err := a.SubmitBid("lastminute", 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(0); err != nil { // slot 1: admitted, no tasks
		t.Fatal(err)
	}
	if _, err := s.Tick(1); err != nil { // slot 2 (final): wins + paid
		t.Fatal(err)
	}
	waitEvent(t, a, EventAssign)
	if s.Done() {
		t.Fatal("round closed with an unresolved completion window")
	}
	// Virtual drain ticks: the deadline (2+2) lapses on the second one.
	if _, err := s.Tick(0); err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("round closed before the completion deadline lapsed")
	}
	if _, err := s.Tick(0); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("round still open after the drain defaulted the silent winner")
	}
	waitEvent(t, a, EventClawback)
	waitEvent(t, a, EventEnd)
	st := s.Stats()
	if st.WinnersDefaulted != 1 || st.TasksUnreplaced != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if out := s.Outcome(); out.TotalPayment() != 0 {
		t.Fatalf("defaulted-only round paid %g", out.TotalPayment())
	}
}
