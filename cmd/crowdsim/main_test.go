package main

import (
	"bytes"
	"strings"
	"testing"
)

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
	if !strings.Contains(out, "shape checks") || !strings.Contains(out, "PASS") {
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
