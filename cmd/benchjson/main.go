// Command benchjson converts `go test -bench` output into a named
// section of a JSON trajectory file, so performance baselines survive
// across changes and regressions are diffable:
//
//	go test -bench=. -benchtime=1x -run='^$' . | benchjson -out BENCH.json -section current
//
// The file accumulates sections (e.g. "baseline" recorded before an
// optimization, "current" after); re-recording a section replaces it and
// leaves the others untouched. Every metric the benchmark emitted is
// kept — ns/op, B/op, allocs/op, and custom metrics like the figure
// benchmarks' welfare_online / sigma_online series. A benchmark repeated
// with `go test -count N` is recorded as the per-metric median of its N
// result lines, with N under "samples" and each metric's extremes under
// "<unit>_min" and "<unit>_max", so a section shows its spread as well as
// its centre; the section records the run's GOMAXPROCS.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// trajectory is the top-level file shape.
type trajectory struct {
	Sections map[string]*section `json:"sections"`
}

// section is one recorded benchmark run.
type section struct {
	Go         string             `json:"go"`
	Recorded   string             `json:"recorded"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Benchmarks map[string]metrics `json:"benchmarks"`
}

// metrics maps unit -> value for one benchmark, plus the iteration count
// and the number of samples the values are the median of.
type metrics map[string]float64

// cpuSuffix is the -GOMAXPROCS suffix go test appends to benchmark names
// when running on more than one CPU.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts benchmark result lines from `go test -bench` output.
// Benchmarks are keyed "<pkg>/<name>" using the preceding `pkg:` line
// (bare name if none was seen), so multi-package runs don't collide.
// Repeated lines for one benchmark fold into the per-metric median. It
// also returns the run's GOMAXPROCS, read from the stripped name suffix
// (none means 1); input mixing CPU counts is rejected, since its lines
// would fold into one median.
func parse(r io.Reader) (map[string]metrics, int, error) {
	runs := make(map[string][]metrics)
	procs := 0
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is: name iterations (value unit)+
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue // e.g. "BenchmarkX ... FAIL" status lines
		}
		name, p := fields[0], 1
		if loc := cpuSuffix.FindStringIndex(name); loc != nil {
			p, _ = strconv.Atoi(name[loc[0]+1:]) // digits only, by the pattern
			name = name[:loc[0]]
		}
		if procs != 0 && p != procs {
			return nil, 0, fmt.Errorf("benchjson: %s: GOMAXPROCS %d, earlier lines %d", fields[0], p, procs)
		}
		procs = p
		if pkg != "" {
			name = pkg + "/" + name
		}
		m := metrics{"iterations": iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("benchjson: %s: bad value %q", fields[0], fields[i])
			}
			m[fields[i+1]] = v
		}
		runs[name] = append(runs[name], m)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("benchjson: read: %w", err)
	}
	out := make(map[string]metrics, len(runs))
	for name, samples := range runs {
		out[name] = median(samples)
	}
	return out, procs, nil
}

// median folds repeated samples of one benchmark into the per-metric
// median (the mean of the middle two for an even count), recording the
// sample count under "samples" and each metric's smallest and largest
// sample under "<unit>_min" and "<unit>_max".
func median(samples []metrics) metrics {
	vals := make(map[string][]float64)
	for _, m := range samples {
		for unit, v := range m {
			vals[unit] = append(vals[unit], v)
		}
	}
	out := metrics{"samples": float64(len(samples))}
	for unit, vs := range vals {
		sort.Float64s(vs)
		n := len(vs)
		out[unit] = (vs[(n-1)/2] + vs[n/2]) / 2
		out[unit+"_min"], out[unit+"_max"] = vs[0], vs[n-1]
	}
	return out
}

// merge loads the existing trajectory (if any), replaces the named
// section, and returns the updated file content.
func merge(existing []byte, name string, sec *section) ([]byte, error) {
	traj := trajectory{Sections: map[string]*section{}}
	if len(existing) > 0 {
		if err := json.Unmarshal(existing, &traj); err != nil {
			return nil, fmt.Errorf("benchjson: existing file: %w", err)
		}
		if traj.Sections == nil {
			traj.Sections = map[string]*section{}
		}
	}
	traj.Sections[name] = sec
	return json.MarshalIndent(traj, "", "  ")
}

// speedup prints the ns/op ratio baseline/current for benchmarks present
// in both sections, so the trajectory doubles as a quick regression
// report.
func speedup(w io.Writer, traj trajectory, from, to string) {
	a, b := traj.Sections[from], traj.Sections[to]
	if a == nil || b == nil {
		return
	}
	names := make([]string, 0, len(a.Benchmarks))
	for name := range a.Benchmarks {
		if _, ok := b.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		old, new := a.Benchmarks[name]["ns/op"], b.Benchmarks[name]["ns/op"]
		if old > 0 && new > 0 {
			fmt.Fprintf(w, "%-70s %10.0f -> %10.0f ns/op  (%.1fx)\n", name, old, new, old/new)
		}
	}
}

func run(args []string, stdin io.Reader, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH.json", "trajectory file to create or update")
	name := fs.String("section", "current", "section name to (re)record")
	in := fs.String("in", "", "read benchmark output from this file instead of stdin")
	compare := fs.String("compare", "baseline", "print ns/op speedups against this section, if present")
	if err := fs.Parse(args); err != nil {
		return err
	}

	src := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("benchjson: %w", err)
		}
		defer f.Close()
		src = f
	}
	benches, procs, err := parse(src)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("benchjson: no benchmark results in input")
	}

	existing, err := os.ReadFile(*out)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("benchjson: %w", err)
	}
	data, err := merge(existing, *name, &section{
		Go:         runtime.Version(),
		Recorded:   time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS: procs,
		Benchmarks: benches,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	fmt.Fprintf(stderr, "benchjson: recorded %d benchmarks to section %q of %s\n", len(benches), *name, *out)
	if *compare != "" && *compare != *name {
		var traj trajectory
		if err := json.Unmarshal(data, &traj); err == nil {
			speedup(stderr, traj, *compare, *name)
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stderr); err != nil {
		os.Exit(1)
	}
}
