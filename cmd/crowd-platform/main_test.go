package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynacrowd/internal/budget"
)

// TestRunPlaysRoundOnWallClock: the server CLI plays an unattended
// round to completion with observability enabled, writing checkpoints
// and a JSONL trace along the way.
func TestRunPlaysRoundOnWallClock(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "round.ckpt")
	trace := filepath.Join(dir, "round.trace.jsonl")
	err := run("127.0.0.1:0", 3, 10, 1, 3*time.Millisecond, 1, 1, 0, ckpt, "127.0.0.1:0", trace, false, 0, "stage")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("empty checkpoint")
	}
	events, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if !strings.Contains(string(events), `"type":"round_open"`) {
		t.Fatalf("trace missing round_open event:\n%s", events)
	}
}

// TestRunResumesFromCheckpoint: a second invocation picks the round up
// from the checkpoint file instead of starting over.
func TestRunResumesFromCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "round.ckpt")
	if err := run("127.0.0.1:0", 4, 10, 1, 3*time.Millisecond, 1, 1, 0, ckpt, "", "", false, 0, "stage"); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint captures the last pre-completion state;
	// resuming finishes the remaining slots and exits cleanly.
	if err := run("127.0.0.1:0", 4, 10, 1, 3*time.Millisecond, 1, 1, 0, ckpt, "", "", false, 0, "stage"); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsUnknownOfflineEngine: -offline-benchmark is a bool, so
// an engine name after it is a stray argument. It is rejected by name
// before anything starts, rather than ending flag parsing and silently
// dropping -slots.
func TestRunRejectsUnknownOfflineEngine(t *testing.T) {
	err := runArgs([]string{"-addr", "127.0.0.1:0", "-offline-benchmark", "magic", "-slots", "3"})
	if err == nil || !strings.Contains(err.Error(), `"magic"`) {
		t.Fatalf("err = %v, want an error naming the stray argument", err)
	}
}

func TestRunRejectsBadAddress(t *testing.T) {
	if err := run("256.0.0.1:99999", 3, 10, 1, time.Millisecond, 1, 1, 0, "", "", "", false, 0, "stage"); err == nil {
		t.Fatal("want listen error")
	}
}

func TestRunMultiRound(t *testing.T) {
	if err := run("127.0.0.1:0", 2, 10, 0.5, 3*time.Millisecond, 2, 2, 0, "", "", "", true, 0, "stage"); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadBudget: -budget validation happens at flag level,
// before any listener is opened.
func TestRunRejectsBadBudget(t *testing.T) {
	for _, b := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := run("127.0.0.1:0", 3, 10, 1, time.Millisecond, 1, 1, 0, "", "", "", false, b, "stage")
		if !errors.Is(err, budget.ErrInvalidBudget) {
			t.Errorf("budget %g: err = %v, want ErrInvalidBudget", b, err)
		}
	}
}

func TestRunRejectsUnknownBudgetEngine(t *testing.T) {
	err := run("127.0.0.1:0", 3, 10, 1, time.Millisecond, 1, 1, 0, "", "", "", false, 5, "simplex")
	if err == nil || !strings.Contains(err.Error(), "simplex") {
		t.Fatalf("err = %v, want unknown budget engine", err)
	}
}

// TestRunBudgetedRound: the CLI plays a budgeted round unattended on
// the wall clock.
func TestRunBudgetedRound(t *testing.T) {
	err := run("127.0.0.1:0", 3, 10, 1, 3*time.Millisecond, 1, 1, 0, "", "", "", false, 25, "frugal")
	if err != nil {
		t.Fatal(err)
	}
}
