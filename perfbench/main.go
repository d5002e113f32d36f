// Command perfbench is dynacrowd's repository benchmark. It runs one of
// three seeded workloads in this process and prints every metric by name
// with its unit; the last line of standard output is a JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run is split: half untraced, then a traced half that
// replays the same inputs, and the metrics are the per-layer ones from the
// traced half plus the tracing overhead. Spans of the traced half are
// written to -trace-out.
//
// Workloads (see README.md for why each exists and what it bypasses):
//
//	wire-churn    platform.Serve over TCP loopback, nproc closed-loop clients
//	engine-heavy  core.OnlineAuction stepped over ~10^5 bids per round
//	budget        budget.Auction stepped over the paper's Table I scenario
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the settings of one benchmark run. tiny shrinks the inputs;
// only the harness's own tests set it.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	tiny     bool
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds (whole rounds are played, at least one)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.traceOut, "trace-out", "", "span output file for -trace 1 (default .bench_build/trace/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/trace/%s-%d.jsonl", o.workload, o.seed)
	}
	return report(o, stdout, stderr)
}

// report executes one run and prints its result object as the last line
// of stdout. It returns the exit code.
func report(o options, stdout, stderr io.Writer) int {
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark workload after set-up: inputs generated,
// reference computed, server (if any) started, one warm-up round played.
type bench interface {
	// measure plays whole rounds until d has elapsed (at least one) and
	// reports what it saw. A non-nil tracer records spans.
	measure(d time.Duration, tr *tracer) (*runStats, error)
	// rewind makes the next measure play the same inputs as the last one,
	// so the traced and untraced measurements differ only by tracing.
	rewind()
	close()
}

// runStats is what one measurement saw. busy is the time spent in the
// measured rounds only, wall time on wire-churn and process CPU time on
// the engines: set-up, reference checks and server start/stop between
// rounds are excluded. Latencies are pooled over every round of
// the run, which spans many inputs.
type runStats struct {
	busy                 time.Duration
	rounds, slots, bids  int64
	attempted, failed    int64
	allocBytes           uint64
	ack, assign, payment samples
	layer                map[string]float64 // per-layer metrics, traced runs only
	failures             []string           // first few failure descriptions
	info                 []string           // sample counts and notes for the log
}

const maxFailureNotes = 5

func (rs *runStats) fail(format string, args ...any) { rs.failN(1, format, args...) }

// failN counts n failed operations under one description.
func (rs *runStats) failN(n int64, format string, args ...any) {
	rs.failed += n
	if len(rs.failures) < maxFailureNotes {
		rs.failures = append(rs.failures, fmt.Sprintf(format, args...))
	}
}

var workloadNames = []string{"wire-churn", "engine-heavy", "budget"}

// setup builds a workload from scratch. tiny shrinks the inputs for
// tests.
func setup(name string, seed uint64, tiny bool, clients int) (bench, error) {
	switch name {
	case "wire-churn":
		return newWireChurn(seed, tiny, clients)
	case "engine-heavy":
		return newEngineHeavy(seed, tiny)
	case "budget":
		return newBudget(seed, tiny)
	case "":
		return nil, errors.New("-workload is required (" + strings.Join(workloadNames, ", ") + ")")
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
}

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit. Every run prints all of the set it reports; a layer a workload
// bypasses reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"bids_per_s", "1/s"},
	{"slots_per_s", "1/s"},
	{"assign_p50_us", "us"},
	{"assign_p99_us", "us"},
	{"payment_p50_us", "us"},
	{"payment_p99_us", "us"},
	{"ack_p50_us", "us"},
	{"ack_p99_us", "us"},
	{"alloc_bytes_per_bid", "B"},
}

var perLayer = []struct{ name, unit string }{
	{"platform.tick_p50_us", "us"},
	{"platform.tick_p99_us", "us"},
	{"platform.tick_first_decile_us", "us"},
	{"platform.tick_last_decile_us", "us"},
	{"platform.deliver_p50_us", "us"},
	{"platform.deliver_p99_us", "us"},
	{"platform.connect_us", "us"},
	{"platform.msgs_queued_per_slot", "count"},
	{"platform.msgs_dropped_per_slot", "count"},
	{"platform.fanout_useful_ratio", "ratio"},
	{"platform.alloc_bytes_per_slot", "B"},
	{"platform.self_us_per_slot", "us"},
	{"protocol.json.send_us", "us"},
	{"protocol.binary.send_us", "us"},
	{"protocol.json.frames_per_phone", "count"},
	{"protocol.binary.frames_per_phone", "count"},
	{"protocol.json.bytes_per_phone", "B"},
	{"protocol.binary.bytes_per_phone", "B"},
	{"protocol.self_us_per_slot", "us"},
	{"core.step_p50_us", "us"},
	{"core.step_p99_us", "us"},
	{"core.step_burst_us", "us"},
	{"core.outcome_ms", "ms"},
	{"core.alloc_s_per_round", "s"},
	{"core.price_s_per_round", "s"},
	{"core.winners_per_round", "count"},
	{"core.self_us_per_slot", "us"},
	{"budget.step_p50_us", "us"},
	{"budget.step_p99_us", "us"},
	{"budget.outcome_ms", "ms"},
	{"budget.wins_per_round", "count"},
	{"budget.paid_over_budget", "ratio"},
	{"budget.self_us_per_slot", "us"},
	{"trace.overhead_ratio", "ratio"},
}

func execute(o options, out io.Writer) (*result, error) {
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 || math.IsNaN(o.seconds) {
		return nil, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	// The load is sized for the machine: one Go thread and one closed-loop
	// client per CPU, so the numbers measure dynacrowd, not the scheduler.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	clients := nproc
	printEnv(out, o, nproc, clients)

	var w bench
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = setup(o.workload, o.seed, o.tiny, clients); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer w.close()
	fmt.Fprintf(out, "# setup_s samples: %v\n", setupTimes)

	d := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: make(map[string]metric)}
	if o.trace == 0 {
		runtime.GC()
		rs, err := w.measure(d, nil)
		if err != nil {
			return nil, err
		}
		e2e := endToEndValues(rs, median(setupTimes))
		printRun(out, "untraced", rs)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		res.Attempted, res.Failed = rs.attempted, rs.failed
	} else {
		runtime.GC()
		plain, err := w.measure(d/2, nil)
		if err != nil {
			return nil, err
		}
		printRun(out, "untraced", plain)
		w.rewind()
		tr := newTracer()
		runtime.GC()
		traced, err := w.measure(d/2, tr)
		if err != nil {
			return nil, err
		}
		printRun(out, "traced", traced)
		spans := tr.all()
		self := selfTimes(spans)
		printSelfTable(out, self, traced.slots)
		bySelf := layerSelf(self)
		layer := make(map[string]float64)
		for k, v := range traced.layer {
			layer[k] = v
		}
		for _, l := range []string{"platform", "protocol", "core", "budget"} {
			layer[l+".self_us_per_slot"] = ratio(float64(bySelf[l])/1e3, float64(traced.slots))
		}
		overhead := ratio(bidsPerSec(plain), bidsPerSec(traced)) - 1
		layer["trace.overhead_ratio"] = overhead
		fmt.Fprintf(out, "# tracing overhead: %.4f on the same inputs (untraced %.1f bids/s, traced %.1f bids/s); %d spans kept, %d dropped\n",
			overhead, bidsPerSec(plain), bidsPerSec(traced), len(spans), tr.dropped.Load())
		if err := writeSpans(o.traceOut, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", o.traceOut)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layer[m.name], m.unit}
		}
		res.Attempted = plain.attempted + traced.attempted
		res.Failed = plain.failed + traced.failed
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// totalAlloc returns the bytes the process has allocated since it started.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func bidsPerSec(rs *runStats) float64 { return ratio(float64(rs.bids), rs.busy.Seconds()) }

func endToEndValues(rs *runStats, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":             setupS,
		"bids_per_s":          bidsPerSec(rs),
		"slots_per_s":         ratio(float64(rs.slots), rs.busy.Seconds()),
		"assign_p50_us":       rs.assign.quantile(0.50),
		"assign_p99_us":       rs.assign.quantile(0.99),
		"payment_p50_us":      rs.payment.quantile(0.50),
		"payment_p99_us":      rs.payment.quantile(0.99),
		"ack_p50_us":          rs.ack.quantile(0.50),
		"ack_p99_us":          rs.ack.quantile(0.99),
		"alloc_bytes_per_bid": ratio(float64(rs.allocBytes), float64(rs.bids)),
	}
}

func printEnv(w io.Writer, o options, nproc, clients int) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%d tiny=%v\n",
		o.workload, o.seed, o.seconds, o.trace, o.tiny)
	fmt.Fprintf(w, "# env nproc=%d GOMAXPROCS=%d cpu=%q go=%s clients=%d\n",
		nproc, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), clients)
}

// cpuModel reads the CPU model name from /proc/cpuinfo where there is one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func printRun(w io.Writer, label string, rs *runStats) {
	fmt.Fprintf(w, "# %s: %d rounds, %d slots, %d bids in %.3fs busy; attempted=%d failed=%d fail_ratio=%g\n",
		label, rs.rounds, rs.slots, rs.bids, rs.busy.Seconds(), rs.attempted, rs.failed,
		ratio(float64(rs.failed), float64(rs.attempted)))
	for _, s := range []struct {
		name string
		s    *samples
	}{{"ack", &rs.ack}, {"assign", &rs.assign}, {"payment", &rs.payment}} {
		note := ""
		if !s.s.supports(0.99) {
			note = " (p99 dropped: fewer than 10 timings beyond it)"
		}
		fmt.Fprintf(w, "#   %-8s n=%d timings of %d events p50=%.2fus p99=%.2fus%s\n",
			s.name, s.s.count(), s.s.n, s.s.quantile(0.5), s.s.quantile(0.99), note)
	}
	for _, s := range rs.info {
		fmt.Fprintf(w, "#   %s\n", s)
	}
	for _, f := range rs.failures {
		fmt.Fprintf(w, "#   FAIL %s\n", f)
	}
}
