package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReportGolden pins the full default report (20 seeds, base seed 1)
// byte for byte, and EXPERIMENTS.md's Fig. 6-11 tables and robustness
// table to it. After a change that moves a figure on purpose, regenerate
// the golden with `go run ./cmd/crowdsim > cmd/crowdsim/testdata/report.golden`
// and the tables from it.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("report differs from testdata/report.golden at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report has %d lines, testdata/report.golden %d", len(gl), len(wl))
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, documented := goldenFigures(t, string(want)), documentedFigures(string(doc))
	for _, id := range paperFigures {
		g, d := golden[id], documented[id]
		if len(d) != len(g) {
			t.Errorf("EXPERIMENTS.md %s table has %d rows, the report %d", id, len(d), len(g))
		}
		for _, cells := range d {
			row, ok := g[cells[0]]
			if !ok {
				t.Errorf("EXPERIMENTS.md %s has a row at x = %s, the report none", id, cells[0])
				continue
			}
			// row: online mean, ci, offline mean, ci; cells: x, online,
			// offline, then for Fig. 6 the offline-online gap.
			want := []string{
				halfUp(t, row[0], cells[1]) + " ± " + halfUp(t, row[1], cells[1]),
				halfUp(t, row[2], cells[2]) + " ± " + halfUp(t, row[3], cells[2]),
			}
			if len(cells) > 3 {
				want = append(want, fmt.Sprint((thousandths(t, row[2])-thousandths(t, row[0])+500)/1000))
			}
			if got := cells[1:]; strings.Join(got, " | ") != strings.Join(want, " | ") {
				t.Errorf("EXPERIMENTS.md %s at x = %s: %q, the report rounds to %q", id, cells[0], got, want)
			}
		}
	}

	// The robustness table is the report's, row for row.
	g := tableRows(string(want), "## Extension: robustness across workload variants")
	d := tableRows(string(doc), "## Robustness (extension, not in the paper)")
	if len(g) == 0 || strings.Join(d, "\n") != strings.Join(g, "\n") {
		t.Errorf("EXPERIMENTS.md robustness table:\n%s\nthe report's:\n%s", strings.Join(d, "\n"), strings.Join(g, "\n"))
	}
}

// tableRows returns the table lines of the section that heading opens in
// a Markdown document, up to the next "## " heading.
func tableRows(doc, heading string) []string {
	var rows []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == heading
			continue
		}
		if in && strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	return rows
}

// goldenFigures reads the paper figures' rows out of a report: figure id
// → x → online mean, online ci, offline mean, offline ci.
func goldenFigures(t *testing.T, report string) map[string]map[string][]string {
	title := regexp.MustCompile(`\((fig\d+)\)$`)
	figs := map[string]map[string][]string{}
	var rows map[string][]string // the open figure's, if any
	for _, line := range strings.Split(report, "\n") {
		if m := title.FindStringSubmatch(line); m != nil {
			rows = map[string][]string{}
			figs[m[1]] = rows
			continue
		}
		if line == "```" {
			rows = nil
		}
		// A row reads "x  mean ± ci  mean ± ci"; skip the column header
		// and the rule under it.
		if f := strings.Fields(line); rows != nil && len(f) == 7 && f[2] == "±" {
			rows[f[0]] = []string{f[1], f[3], f[4], f[6]}
		}
	}
	if len(figs) != len(paperFigures) {
		t.Fatalf("golden report holds figures %v, want %v", figs, paperFigures)
	}
	return figs
}

// documentedFigures reads the rows of each "## Fig. N" table in
// EXPERIMENTS.md: figure id → rows of cells, x first.
func documentedFigures(doc string) map[string][][]string {
	heading := regexp.MustCompile(`^## Fig\. (\d+) `)
	figs := map[string][][]string{}
	id := ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			id = ""
			if m := heading.FindStringSubmatch(line); m != nil {
				id = "fig" + m[1]
			}
			continue
		}
		if id == "" || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if _, err := strconv.ParseFloat(cells[0], 64); err == nil {
			figs[id] = append(figs[id], cells)
		}
	}
	return figs
}

// thousandths parses a report value, printed with three decimals.
func thousandths(t *testing.T, s string) int64 {
	t.Helper()
	whole, frac, ok := strings.Cut(s, ".")
	n, err := strconv.ParseInt(whole+frac, 10, 64)
	if !ok || len(frac) != 3 || err != nil {
		t.Fatalf("report value %q is not printed with three decimals", s)
	}
	return n
}

// halfUp rounds the report value s half up to as many decimals as the
// documented cell like ("a ± b") shows on its mean: 1498.550 becomes
// 1498.6 beside "1498.6 ± 68.4". Formatting the float 1498.55 with %.1f
// gives 1498.5, because the float sits just below it.
func halfUp(t *testing.T, s, like string) string {
	t.Helper()
	mean, _, _ := strings.Cut(like, " ")
	_, frac, _ := strings.Cut(mean, ".")
	d := len(frac)
	if d > 3 {
		t.Fatalf("documented value %q has more decimals than the report's three", mean)
	}
	p := int64(math.Pow10(3 - d))
	n := (thousandths(t, s) + p/2) / p
	if d == 0 {
		return strconv.FormatInt(n, 10)
	}
	q := int64(math.Pow10(d))
	return fmt.Sprintf("%d.%0*d", n/q, d, n%q)
}

// TestReportQuick: at 2 seeds every section of the full report renders,
// no per-seed guarantee (competitive ratio, dominance, IR) is violated,
// and only the statistical σ checks may fail.
func TestReportQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-seeds", "2", "-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range sections {
		if got := strings.Contains(out, "## "+s.title); got == s.onRequest {
			t.Errorf("section %q in the full report: %v", s.title, got)
		}
	}
	for _, id := range paperFigures {
		if !strings.Contains(out, "("+id+")") {
			t.Errorf("report missing %s", id)
		}
	}
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("hard guarantees violated:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "FAIL") && !strings.Contains(line, "σ") {
			t.Errorf("non-statistical shape check failed: %s", line)
		}
	}
}

func TestRunQuickSingleFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "fig6", "-format", "table"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig6", "online", "offline", "30", "70"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fig9") {
		t.Fatal("unrequested figure rendered")
	}
}

func TestRunCSVFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "fig10", "-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "online_mean,online_ci95") {
		t.Fatalf("csv header missing:\n%s", buf.String())
	}
}

func TestRunChartFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "fig7", "-format", "chart"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "legend:") {
		t.Fatalf("chart legend missing:\n%s", buf.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-figure", "fig99"}, &buf); err == nil {
		t.Fatal("want unknown-figure error")
	}
}

func TestRunUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "fig6", "-format", "pdf"}, &buf); err == nil {
		t.Fatal("want unknown-format error")
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Fatal("want flag error")
	}
}

// TestRunRejectsPositionalArgs: a stray word is an error naming it, not
// a silently dropped figure choice (and flags after it are not lost).
func TestRunRejectsPositionalArgs(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-quick", "fig6", "-format", "csv"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `"fig6"`) {
		t.Fatalf("err = %v, want an error naming the stray argument", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("ran despite the stray argument:\n%s", buf.String())
	}
}

func TestRunValueOverride(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-quick", "-figure", "fig6", "-value", "60"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-figure", "fig6"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Fatal("-value override had no effect")
	}
}

func TestRunBaselinesFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "baselines"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"all mechanisms", "posted-price", "adaptive-posted-price", "greedy-by-cost"} {
		if !strings.Contains(out, want) {
			t.Fatalf("baselines output missing %q", want)
		}
	}
}

func TestRunRobustnessFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "robustness"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"exponential costs", "rush-hour tasks", "OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("robustness output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("core claims violated:\n%s", out)
	}
}

func TestRunReserveFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "reserve"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Platform profit vs declared reserve") {
		t.Fatalf("reserve output:\n%s", buf.String())
	}
}

func TestRunAnytimeFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "anytime"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Anytime competitive ratio") {
		t.Fatalf("anytime output:\n%s", buf.String())
	}
}

func TestRunQualityFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "quality"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Query coverage") {
		t.Fatalf("quality output:\n%s", buf.String())
	}
}

func TestRunAllWithCheck(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-check"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Shape checks") || !strings.Contains(out, "PASS") {
		t.Fatalf("check output missing:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("shape checks failed:\n%s", out)
	}
}

// TestRunBudgetFigure: -figure budget runs the welfare-per-budget
// comparison across the workload zoo and renders the table plus the
// figure.
func TestRunBudgetFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "budget"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"default", "heavy-burst", "rush-hour", "budget-stage", "budget-frugal", "online", "ω/B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// The mechanism column names the mechanism alone: the B column
	// beside it holds the budget, rounded.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		cells := strings.Split(line, " | ")
		if len(cells) != 7 || strings.HasPrefix(line, "| scenario") || strings.HasPrefix(line, "|---") {
			continue
		}
		rows++
		switch mech := cells[1]; mech {
		case "online-greedy", "budget-stage", "budget-frugal":
		default:
			t.Errorf("mechanism cell %q in row %q", mech, line)
		}
	}
	if rows != 21 {
		t.Errorf("%d table rows, want 21 (3 scenarios × (1 + 2 engines × 3 budgets))", rows)
	}
}

// TestRunBudgetOverride: -budget swaps the budgeted mechanism into the
// ordinary paper sweeps.
func TestRunBudgetOverride(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figure", "fig6", "-budget", "150", "-budget-engine", "frugal"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig6") {
		t.Fatalf("figure missing:\n%s", buf.String())
	}
}

// TestRunBudgetFlagValidation: bad -budget values and engine names are
// rejected before any sweep starts.
func TestRunBudgetFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-budget", "-4"},
		{"-budget", "NaN"},
		{"-budget", "+Inf"},
		{"-budget", "5", "-budget-engine", "simplex"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(append([]string{"-quick", "-figure", "fig6"}, args...), &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
