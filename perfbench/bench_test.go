package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dynacrowd/internal/core"
)

// tinyOptions is a fast run of one workload.
func tinyOptions(t *testing.T, wl string, trace int) options {
	return options{
		workload: wl, seed: 7, seconds: 0.2, trace: trace, tiny: true,
		traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloadNames {
		for trace, want := range [][]struct{ name, unit string }{endToEnd, perLayer} {
			var log bytes.Buffer
			o := tinyOptions(t, wl, trace)
			res, err := execute(o, &log)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", wl, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s",
					wl, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s", wl, trace, m.name, got, ok, m.unit)
				}
			}
			if trace == 0 {
				for _, m := range []string{"setup_s", "bids_per_s", "slots_per_s", "assign_p50_us", "payment_p50_us", "ack_p50_us"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", wl, m, res.Metrics[m].Value)
					}
				}
			} else {
				if _, err := os.Stat(o.traceOut); err != nil {
					t.Errorf("%s: spans not written: %v", wl, err)
				}
				if !strings.Contains(log.String(), "tracing overhead") {
					t.Errorf("%s: traced run printed no tracing overhead", wl)
				}
			}
		}
	}
}

// The layers each workload exercises must report work in the traced run.
func TestTracedRunsReportTheirLayers(t *testing.T) {
	layers := map[string][]string{
		"wire-churn":   {"platform.tick_p50_us", "platform.deliver_p50_us", "platform.connect_us", "protocol.json.send_us", "protocol.binary.send_us", "platform.self_us_per_slot", "protocol.self_us_per_slot"},
		"engine-heavy": {"core.step_p50_us", "core.outcome_ms", "core.alloc_s_per_round", "core.price_s_per_round", "core.winners_per_round", "core.self_us_per_slot"},
		"budget":       {"budget.step_p50_us", "budget.outcome_ms", "budget.wins_per_round", "budget.paid_over_budget", "budget.self_us_per_slot"},
	}
	for wl, names := range layers {
		// Long enough for 20 rounds: a median needs ten beyond it.
		o := tinyOptions(t, wl, 1)
		o.seconds = 1
		var log bytes.Buffer
		res, err := execute(o, &log)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		for _, n := range names {
			if res.Metrics[n].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0\n%s", wl, n, res.Metrics[n].Value, log.String())
			}
		}
	}
}

// A deliberately wrong expected payment must be reported as a failure,
// on the wire and on both engines.
func TestCorruptedExpectedPaymentFails(t *testing.T) {
	wire, err := newWireChurn(3, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wire.close()
	corrupted := false
	for _, phones := range wire.plan.clients {
		for _, ph := range phones {
			if ph.task != core.NoTask && !corrupted {
				ph.pay++
				corrupted = true
			}
		}
	}
	if !corrupted {
		t.Fatal("tiny wire plan has no winner to corrupt")
	}
	heavy, err := newEngineHeavy(3, true)
	if err != nil {
		t.Fatal(err)
	}
	corruptReferences(heavy)
	budget, err := newBudget(3, true)
	if err != nil {
		t.Fatal(err)
	}
	corruptReferences(budget)

	for name, w := range map[string]bench{"wire-churn": wire, "engine-heavy": heavy, "budget": budget} {
		rs, err := w.measure(time.Millisecond, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rs.failed == 0 || len(rs.failures) == 0 {
			t.Errorf("%s: corrupted payment passed (attempted %d, failed %d)", name, rs.attempted, rs.failed)
		}
	}
}

// corruptReferences makes every reference not yet played, and every later
// one, pay its first winner one unit more than the mechanism does.
func corruptReferences(w *engineWorkload) {
	corrupt := func(e *engineInput) {
		for i, k := range e.ref.Allocation.ByPhone {
			if k != core.NoTask {
				e.ref.Payments[i]++
				return
			}
		}
	}
	for _, e := range w.queue {
		corrupt(e)
	}
	reference := w.reference
	w.reference = func(e *engineInput) error {
		if err := reference(e); err != nil {
			return err
		}
		corrupt(e)
		return nil
	}
}

// The command's last line is the result object with exactly its four keys.
func TestRunPrintsResultLast(t *testing.T) {
	var out, errOut bytes.Buffer
	o := options{workload: "budget", seed: 5, seconds: 0.1, tiny: true}
	if code := report(o, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %v", keys)
	}
	if !strings.Contains(out.String(), "nproc=") || !strings.Contains(out.String(), "GOMAXPROCS=") {
		t.Errorf("run did not record its environment:\n%s", out.String())
	}
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "budget", "--trace", "2"}, {"--size", "tiny"}} {
		out.Reset()
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// BENCHMARK.json must list exactly the metrics the command prints.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", wls, workloadNames)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		cmd  []struct{ name, unit string }
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.cmd) {
			t.Errorf("BENCHMARK.json lists %d metrics, command prints %d", len(c.file), len(c.cmd))
			continue
		}
		for i := range c.cmd {
			if c.file[i].Name != c.cmd[i].name || c.file[i].Unit != c.cmd[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), command %s (%s)",
					i, c.file[i].Name, c.file[i].Unit, c.cmd[i].name, c.cmd[i].unit)
			}
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "harness.round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.step", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.step", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "core.outcome", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if self["harness.round"] != 100-50-10 || self["core.step"] != 60 || self["core.outcome"] != 30 {
		t.Errorf("self times %v", self)
	}
	if l := layerSelf(self); l["core"] != 90 || l["harness"] != 40 {
		t.Errorf("layer self times %v", l)
	}
}

func TestQuantileWeightsSamples(t *testing.T) {
	var s samples
	for i := 0; i < 20; i++ {
		s.addN(1, 50)
	}
	s.addN(5, 1)
	s.addN(9, 1)
	if s.quantile(0.5) != 1 || s.quantile(0.0) != 1 {
		t.Errorf("quantiles %v %v", s.quantile(0.5), s.quantile(0))
	}
	// 1002 events, but only 22 separate timings: p99 is dropped.
	if s.supports(0.99) || s.quantile(0.99) != 0 {
		t.Errorf("22 timings support p99 (%v)", s.quantile(0.99))
	}
	for i := 0; i < 1000; i++ {
		s.add(2)
	}
	if !s.supports(0.99) || s.quantile(0.99) != 2 {
		t.Errorf("1022 timings: p99 %v", s.quantile(0.99))
	}
}

// The traced half of a traced run replays exactly the instances the
// untraced half played, so the overhead compares like with like.
func TestRewindReplaysSameInstances(t *testing.T) {
	for _, mk := range []func(uint64, bool) (*engineWorkload, error){newEngineHeavy, newBudget} {
		w, err := mk(11, true)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := w.measure(50*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds := append([]uint64(nil), w.played...)
		w.rewind()
		traced, err := w.measure(time.Nanosecond, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if traced.rounds != plain.rounds || traced.bids != plain.bids || !slices.Equal(w.played, seeds) {
			t.Errorf("%s: traced %d rounds/%d bids, untraced %d/%d", w.layer, traced.rounds, traced.bids, plain.rounds, plain.bids)
		}
		if plain.failed+traced.failed != 0 {
			t.Errorf("%s: failures %v %v", w.layer, plain.failures, traced.failures)
		}
	}
}

// skewedAuction issues the wrapped auction's payments changed by skew, in
// the departure notices and in the outcome alike.
type skewedAuction struct {
	core.Auction
	skew func(float64) float64
}

func (a *skewedAuction) Step(arriving []core.StreamBid, tasks int) (*core.SlotResult, error) {
	res, err := a.Auction.Step(arriving, tasks)
	if err != nil {
		return nil, err
	}
	r := *res
	r.Payments = append([]core.PaymentNotice(nil), res.Payments...)
	for i := range r.Payments {
		r.Payments[i].Amount = a.skew(r.Payments[i].Amount)
	}
	return &r, nil
}

func (a *skewedAuction) Outcome() *core.Outcome {
	out := *a.Auction.Outcome()
	out.Payments = append([]float64(nil), out.Payments...)
	for i, k := range out.Allocation.ByPhone {
		if k != core.NoTask {
			out.Payments[i] = a.skew(out.Payments[i])
		}
	}
	return &out
}

// skewBudget makes every later round of w pay through skew.
func skewBudget(t *testing.T, skew func(float64) float64) *engineWorkload {
	w, err := newBudget(13, true)
	if err != nil {
		t.Fatal(err)
	}
	newAuction := w.newAuction
	w.newAuction = func(m *core.Metrics) (core.Auction, error) {
		a, err := newAuction(m)
		return &skewedAuction{Auction: a, skew: skew}, err
	}
	w.queue = nil
	return w
}

// Only a winner paid below its bid is screened; a budget overrun fails the
// round, and a run where every instance underpays fails outright.
func TestBudgetRegressionsFail(t *testing.T) {
	over := skewBudget(t, func(x float64) float64 { return x + budgetB })
	rs, err := over.measure(time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.failed == 0 || !strings.Contains(strings.Join(rs.failures, "\n"), "exceeds budget") || over.screened != 0 {
		t.Errorf("overrun: failed %d, screened %d, failures %v", rs.failed, over.screened, rs.failures)
	}

	under := skewBudget(t, func(x float64) float64 { return x / 2 })
	if _, err := under.measure(time.Millisecond, nil); !errors.Is(err, errScreened) {
		t.Errorf("every instance underpays: err %v, want screened-out error", err)
	}
}

// Screened instances are attempted operations; past the known bug's rate
// they are failed ones too.
func TestScreenedShareCountsAsFailure(t *testing.T) {
	for _, c := range []struct {
		generated, screened int
		fail                bool
	}{{300, 1, false}, {300, 3, false}, {300, 6, false}, {300, 7, true}, {50, 4, true}} {
		w := &engineWorkload{generated: c.generated, screened: c.screened}
		rs := &runStats{}
		w.countScreened(rs)
		if rs.attempted != int64(c.screened) || (rs.failed != 0) != c.fail {
			t.Errorf("%d of %d screened: attempted %d failed %d", c.screened, c.generated, rs.attempted, rs.failed)
		}
	}
}
