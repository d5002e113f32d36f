package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dynacrowd/internal/chaos"
	"dynacrowd/internal/core"
	"dynacrowd/internal/protocol"
	"dynacrowd/internal/workload"
)

// TestWireDifferentialSwarm replays one scripted multi-round auction —
// bids, assignments, completions, defaults with re-allocation, payment
// clawbacks — under three wire configurations: every agent on JSON,
// every agent on the binary framing, and a mixed swarm. The framing is
// transport dressing and nothing else, so the auction outcome and every
// wire-independent operational tally must be bit-identical across the
// three runs. The all-JSON run must also match the golden transcript
// (see wireTranscriptGolden) message for message.
func TestWireDifferentialSwarm(t *testing.T) {
	const agents = 10
	// Seeded script, shared verbatim by all three runs. Agent 0 is
	// pinned cheap, short-lived, and non-completing so the
	// default/clawback path is provably exercised: it wins immediately,
	// departs (and is paid) before its completion deadline, and never
	// reports — the payment must be clawed back and the task re-offered.
	rng := workload.NewRNG(42)
	costs := make([]float64, agents)
	durations := make([]core.Slot, agents)
	for i := range costs {
		costs[i] = rng.Uniform(5, 45)
		durations[i] = core.Slot(2 + rng.Intn(7))
	}
	costs[0], durations[0] = 1, 2
	schedule := make([]int, 64) // tasks announced per tick, both rounds
	for i := range schedule {
		schedule[i] = rng.Intn(3)
	}

	wires := func(pick func(i int) string) []string {
		w := make([]string, agents)
		for i := range w {
			w[i] = pick(i)
		}
		return w
	}
	runs := map[string][]string{
		"json":   wires(func(int) string { return protocol.WireJSON }),
		"binary": wires(func(int) string { return protocol.WireBinary }),
		"mixed": wires(func(i int) string {
			if i%2 == 0 {
				return protocol.WireBinary
			}
			return protocol.WireJSON
		}),
	}

	type result struct {
		outcome *core.Outcome
		stats   Stats
		heard   [][]protocol.Message
	}
	results := make(map[string]result)
	for name, wireByAgent := range runs {
		outcome, stats, heard := runWireDifferentialScript(t, wireByAgent, costs, durations, schedule)
		results[name] = result{outcome, stats, heard}
		t.Logf("%s: welfare %.2f paid %.2f defaults %d reallocated %d clawbacks %d (%.2f)",
			name, stats.TotalWelfare, stats.TotalPaid, stats.WinnersDefaulted,
			stats.TasksReallocated, stats.ClawbacksIssued, stats.ClawbackTotal)
	}

	// The script must actually reach the paths it claims to compare.
	ref := results["json"]
	if ref.stats.CompletionsReported == 0 || ref.stats.WinnersDefaulted == 0 || ref.stats.ClawbacksIssued == 0 {
		t.Fatalf("script did not exercise the completion lifecycle: %+v", ref.stats)
	}
	if ref.stats.RoundsCompleted != 2 {
		t.Fatalf("script completed %d rounds, want 2", ref.stats.RoundsCompleted)
	}

	checkWireTranscript(t, wireTranscript{
		Agents:  ref.heard,
		Stats:   wireIndependentStats(ref.stats),
		Outcome: ref.outcome,
	})

	for name, got := range results {
		if !reflect.DeepEqual(got.outcome, ref.outcome) {
			t.Errorf("outcome diverges between json and %s swarms:\n json:   %+v\n %s: %+v",
				name, ref.outcome, name, got.outcome)
		}
		// Every tally the wire format could plausibly perturb — money,
		// allocation, lifecycle — must agree exactly. (Message counts
		// are intentionally excluded: the formats split them by design.)
		refK, gotK := wireIndependentStats(ref.stats), wireIndependentStats(got.stats)
		if refK != gotK {
			t.Errorf("stats diverge between json and %s swarms:\n json:   %+v\n %s: %+v",
				name, refK, name, gotK)
		}
	}
}

// wireIndependentStats projects Stats onto the fields the wire format
// must not influence.
func wireIndependentStats(s Stats) [13]float64 {
	return [13]float64{
		float64(s.BidsAccepted), float64(s.BidsRejected),
		float64(s.TasksAnnounced), float64(s.TasksServed),
		float64(s.PaymentsIssued), s.TotalPaid, s.TotalWelfare,
		float64(s.CompletionsReported), float64(s.WinnersDefaulted),
		float64(s.TasksReallocated), float64(s.ClawbacksIssued),
		s.ClawbackTotal, float64(s.RoundsCompleted),
	}
}

// wireTranscriptGolden is what the all-JSON run of
// TestWireDifferentialSwarm must reproduce exactly: every message each
// agent heard after its state reply, in order and with every field, the
// wire-independent Stats and the final Outcome. It was recorded from the
// server as it stood before Tick was split into stages, so any change
// to what a phone is told, in what order, or to the money tallies shows
// up here. After an intended behaviour change, re-record it by writing
// encodeWireTranscript's output over the file.
var wireTranscriptGolden = filepath.Join("testdata", "wire-transcript.json")

// wireTranscript is the golden's content.
type wireTranscript struct {
	Agents  [][]protocol.Message `json:"agents"`
	Stats   [13]float64          `json:"stats"` // wireIndependentStats
	Outcome *core.Outcome        `json:"outcome"`
}

// encodeWireTranscript renders tr as JSON with one message per line, so
// a mismatch can be reported by line.
func encodeWireTranscript(tr wireTranscript) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("{\"agents\": [\n")
	for i, msgs := range tr.Agents {
		b.WriteString(" [\n")
		for k := range msgs {
			line, err := json.Marshal(&msgs[k])
			if err != nil {
				return nil, err
			}
			b.WriteString("  ")
			b.Write(line)
			if k < len(msgs)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString(" ]")
		if i < len(tr.Agents)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	stats, err := json.Marshal(tr.Stats)
	if err != nil {
		return nil, err
	}
	outcome, err := json.Marshal(tr.Outcome)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "],\n\"stats\": %s,\n\"outcome\": %s\n}\n", stats, outcome)
	return b.Bytes(), nil
}

// checkWireTranscript fails t unless got encodes byte for byte to the
// golden transcript, naming the first line that differs.
func checkWireTranscript(t *testing.T, got wireTranscript) {
	t.Helper()
	want, err := os.ReadFile(wireTranscriptGolden)
	if err != nil {
		t.Fatal(err)
	}
	have, err := encodeWireTranscript(got)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(have, want) {
		return
	}
	wl, hl := bytes.Split(want, []byte("\n")), bytes.Split(have, []byte("\n"))
	for i := 0; i < len(wl) || i < len(hl); i++ {
		var w, h []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(hl) {
			h = hl[i]
		}
		if !bytes.Equal(w, h) {
			t.Fatalf("%s line %d differs:\n want %s\n got  %s", wireTranscriptGolden, i+1, w, h)
		}
	}
}

// diffAgent is a scripted wire client that records everything the
// platform tells it, so the test can react (complete assignments) and
// synchronize (await acks) deterministically.
type diffAgent struct {
	conn net.Conn
	w    *protocol.Writer

	mu        sync.Mutex
	phone     core.PhoneID
	round     int
	acks      int
	heard     []protocol.Message // every message received, in order
	asserts   []string           // protocol errors observed (must stay empty)
	assigns   []diffAssign
	completed map[diffAssign]bool
}

type diffAssign struct {
	round int
	task  core.TaskID
}

func (a *diffAgent) readLoop(r *protocol.Reader) {
	var m protocol.Message
	for {
		if err := r.ReceiveInto(&m); err != nil {
			return
		}
		a.mu.Lock()
		a.heard = append(a.heard, m)
		switch m.Type {
		case protocol.TypeWelcome:
			a.phone, a.round = m.Phone, m.Round
		case protocol.TypeAck:
			a.acks++
		case protocol.TypeAssign:
			a.assigns = append(a.assigns, diffAssign{round: a.round, task: m.Task})
		case protocol.TypeError:
			a.asserts = append(a.asserts, m.Error)
		}
		a.mu.Unlock()
	}
}

// runWireDifferentialScript plays the fixed two-round script against a
// fresh server with the given per-agent wire formats and returns the
// final outcome and stats, and every message each agent heard after its
// state reply.
func runWireDifferentialScript(t *testing.T, wireByAgent []string, costs []float64, durations []core.Slot, schedule []int) (*core.Outcome, Stats, [][]protocol.Message) {
	t.Helper()
	ln := chaos.NewMemListener(len(wireByAgent))
	srv, err := Serve(ln, Config{
		Slots:              8,
		Value:              30,
		Rounds:             2,
		CompletionDeadline: 2,
		WriteTimeout:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	swarm := make([]*diffAgent, len(wireByAgent))
	for i, wire := range wireByAgent {
		raw := newRawWireAgent(t, ln, wire)
		a := &diffAgent{conn: raw.conn, w: raw.w, phone: -1, completed: map[diffAssign]bool{}}
		go a.readLoop(raw.r)
		swarm[i] = a
		defer a.conn.Close()
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	completions := 0
	tick := 0
	for round := 1; round <= 2; round++ {
		// Sequential ack-awaited bids: admission order, and therefore
		// the phone-ID assignment, is identical in every run.
		for i, a := range swarm {
			wantAcks := a.ackCount() + 1
			if err := a.w.Send(&protocol.Message{
				Type: protocol.TypeBid, Name: "p", Duration: durations[i], Cost: costs[i],
			}); err != nil {
				t.Fatalf("round %d bid %d: %v", round, i, err)
			}
			waitFor("bid ack", func() bool { return a.ackCount() >= wantAcks })
		}
		// Tick the round to completion (including any completion-drain
		// slots past the final one), completing assignments between
		// ticks: every agent except the non-reporters (i%3 == 0)
		// acknowledges each task as soon as it learns of it.
		for srv.Stats().RoundsCompleted < round {
			if tick >= len(schedule) {
				t.Fatalf("round %d did not complete within %d ticks", round, len(schedule))
			}
			if _, err := srv.Tick(schedule[tick]); err != nil {
				t.Fatal(err)
			}
			tick++
			waitDrained(t, srv, 10*time.Second)
			// waitDrained means the assign notices reached the wire, not
			// that the agents' read loops parsed them yet; a starved
			// reader could miss a completion window. Every assign notice
			// corresponds to an allocation or re-allocation (no resumes
			// here), so barrier until the swarm has observed them all.
			wantAssigns := func() int {
				st := srv.Stats()
				return st.TasksServed + st.TasksReallocated
			}()
			waitFor("assign delivery", func() bool {
				total := 0
				for _, a := range swarm {
					total += a.assignCount()
				}
				return total >= wantAssigns
			})
			for i, a := range swarm {
				if i%3 == 0 {
					continue
				}
				for _, c := range a.pendingCompletes(round) {
					completions++
					if err := a.w.Send(&c); err != nil {
						t.Fatalf("round %d complete: %v", round, err)
					}
				}
			}
			want := completions
			waitFor("completion processing", func() bool {
				st := srv.Stats()
				return st.CompletionsReported+st.CompletionsRejected >= want
			})
		}
	}

	// The round may have closed on a completion report, after the last
	// waitDrained: barrier until the swarm has read every message the
	// server wrote (the state replies were read by the handshake).
	waitDrained(t, srv, 10*time.Second)
	waitFor("message delivery", func() bool {
		st := srv.Stats()
		total := int64(len(swarm))
		for _, a := range swarm {
			a.mu.Lock()
			total += int64(len(a.heard))
			a.mu.Unlock()
		}
		return total >= st.MessagesSentJSON+st.MessagesSentBinary
	})
	outcome, stats := srv.Outcome(), srv.Stats()
	heard := make([][]protocol.Message, len(swarm))
	for i, a := range swarm {
		a.mu.Lock()
		errs := a.asserts
		heard[i] = a.heard
		a.mu.Unlock()
		if len(errs) > 0 {
			t.Fatalf("agent %d saw protocol errors: %v", i, errs)
		}
	}
	return outcome, stats, heard
}

func (a *diffAgent) ackCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acks
}

func (a *diffAgent) assignCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.assigns)
}

// pendingCompletes returns complete messages for this round's
// assignments not yet reported, marking them reported.
func (a *diffAgent) pendingCompletes(round int) []protocol.Message {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []protocol.Message
	for _, as := range a.assigns {
		if as.round != round || a.completed[as] || a.phone < 0 {
			continue
		}
		a.completed[as] = true
		out = append(out, protocol.Message{
			Type: protocol.TypeComplete, Phone: a.phone, Task: as.task, Round: round,
		})
	}
	return out
}
