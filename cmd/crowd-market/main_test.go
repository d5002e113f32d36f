package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunMarketSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := run(6, "online", 0.5, 15, 1, false, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"6 rounds of 15 slots", "online-greedy", "mean welfare/round", "σ drift"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "round    phones") {
		t.Fatal("verbose table printed without -verbose")
	}
}

func TestRunMarketVerbose(t *testing.T) {
	var buf bytes.Buffer
	if err := run(3, "offline", 0, 10, 2, true, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "offline-vcg") {
		t.Fatalf("mechanism missing:\n%s", out)
	}
	// Three per-round rows plus the header.
	if got := strings.Count(out, "\n"); got < 8 {
		t.Fatalf("verbose output too short (%d lines):\n%s", got, out)
	}
}

func TestRunMarketErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(3, "warble", 0.5, 10, 1, false, &buf); err == nil {
		t.Fatal("want unknown-mechanism error")
	}
	if err := run(0, "online", 0.5, 10, 1, false, &buf); err == nil {
		t.Fatal("want rounds error")
	}
	if err := run(3, "online", 2, 10, 1, false, &buf); err == nil {
		t.Fatal("want return-probability error")
	}
}
