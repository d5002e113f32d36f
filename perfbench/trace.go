package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Name is
// "<layer>.<operation>"; Trace groups the spans of one phone (wire-churn)
// or one round (engine workloads); Parent is the span that caused it (0
// for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory per traced run; later spans
// are counted as dropped and left out of the self-time table.
const maxSpans = 1 << 21

// tracer keeps the spans of a traced run in memory. Each goroutine records
// into its own spanLog, so recording takes no lock; the logs are merged
// when the run ends. A nil *tracer (and the nil *spanLog it hands out)
// records nothing.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	traces  atomic.Int64
	kept    atomic.Int64
	dropped atomic.Int64

	mu   sync.Mutex
	logs []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// log returns a span log for one goroutine.
func (tr *tracer) log() *spanLog {
	if tr == nil {
		return nil
	}
	l := &spanLog{tr: tr}
	tr.mu.Lock()
	tr.logs = append(tr.logs, l)
	tr.mu.Unlock()
	return l
}

// newTrace returns a fresh trace identifier (0 when tracing is off).
func (tr *tracer) newTrace() int64 {
	if tr == nil {
		return 0
	}
	return tr.traces.Add(1)
}

func (tr *tracer) ns(t time.Time) int64 { return t.Sub(tr.epoch).Nanoseconds() }

type spanLog struct {
	tr    *tracer
	spans []span
}

// record stores a finished span and returns its id (0 when off or full).
func (l *spanLog) record(name string, trace, parent int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	if l.tr.kept.Add(1) > maxSpans {
		l.tr.dropped.Add(1)
		return 0
	}
	id := l.tr.ids.Add(1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: l.tr.ns(start), End: l.tr.ns(end)})
	return id
}

// reserve allocates an id for a span whose children finish before it
// does; close records it under that id.
func (l *spanLog) reserve() int64 {
	if l == nil {
		return 0
	}
	return l.tr.ids.Add(1)
}

func (l *spanLog) close(id int64, name string, trace, parent int64, start, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	if l.tr.kept.Add(1) > maxSpans {
		l.tr.dropped.Add(1)
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: l.tr.ns(start), End: l.tr.ns(end)})
}

func (tr *tracer) all() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, l := range tr.logs {
		out = append(out, l.spans...)
	}
	return out
}

// selfTimes returns each span name's total self time in nanoseconds: its
// duration minus the part of its interval its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// layerOf returns the layer a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time by layer.
func layerSelf(self map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for name, ns := range self {
		out[layerOf(name)] += ns
	}
	return out
}

// writeSpans writes every kept span as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

// printSelfTable prints self time by span name, grouped by layer.
func printSelfTable(w io.Writer, self map[string]int64, slots int64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# self time by span (per slot, %d slots traced)\n", slots)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-22s %12.3f us/slot\n", n, ratio(float64(self[n])/1e3, float64(slots)))
	}
}
