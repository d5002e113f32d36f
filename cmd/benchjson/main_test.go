package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: dynacrowd
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkOnlineMechanism/slots=100-8      	   88958	     26158 ns/op	   17408 B/op	       6 allocs/op
BenchmarkFig6WelfareVsSlots/slots=30-8    	       1	  12345678 ns/op	       434.9 welfare_online	       512.3 welfare_offline	         0.52 sigma_online	         0.61 sigma_offline
BenchmarkStreamingSlot-8                  	   48362	     59043 ns/op	        50.00 slots/op	   89848 B/op	     532 allocs/op
PASS
ok  	dynacrowd	11.074s
`

func TestParse(t *testing.T) {
	got, procs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	m, ok := got["dynacrowd/BenchmarkOnlineMechanism/slots=100"]
	if !ok {
		t.Fatalf("missing pkg-qualified benchmark, got keys %v", got)
	}
	if m["ns/op"] != 26158 || m["allocs/op"] != 6 || m["iterations"] != 88958 {
		t.Errorf("wrong metrics: %v", m)
	}
	// The -8 GOMAXPROCS suffix must be stripped so sections recorded on
	// different machines stay comparable, and custom metrics must survive.
	fig, ok := got["dynacrowd/BenchmarkFig6WelfareVsSlots/slots=30"]
	if !ok {
		t.Fatalf("missing suffix-stripped benchmark, got keys %v", got)
	}
	if fig["welfare_online"] != 434.9 || fig["sigma_offline"] != 0.61 {
		t.Errorf("custom metrics lost: %v", fig)
	}
	if procs != 8 || m["samples"] != 1 {
		t.Errorf("GOMAXPROCS %d, samples %v; want 8 and 1", procs, m["samples"])
	}

	// go test -count 3: every line is a sample; each metric records its
	// median, not the last line, and the extremes beside it.
	got, procs, err = parse(strings.NewReader(`pkg: dynacrowd
BenchmarkStreamingSlot-2   	   100	     900 ns/op	  50.00 slots/op	  512 B/op
BenchmarkStreamingSlot-2   	   300	     500 ns/op	  50.00 slots/op	  256 B/op
BenchmarkStreamingSlot-2   	   200	     700 ns/op	  50.00 slots/op	  768 B/op
`))
	if err != nil {
		t.Fatal(err)
	}
	want := metrics{
		"iterations": 200, "iterations_min": 100, "iterations_max": 300,
		"ns/op": 700, "ns/op_min": 500, "ns/op_max": 900,
		"slots/op": 50, "slots/op_min": 50, "slots/op_max": 50,
		"B/op": 512, "B/op_min": 256, "B/op_max": 768,
		"samples": 3,
	}
	if m := got["dynacrowd/BenchmarkStreamingSlot"]; len(m) != len(want) {
		t.Fatalf("repeated lines: got %v, want %v", m, want)
	} else {
		for unit, v := range want {
			if m[unit] != v {
				t.Errorf("repeated lines: %s = %v, want %v", unit, m[unit], v)
			}
		}
	}
	if procs != 2 {
		t.Errorf("GOMAXPROCS %d, want 2", procs)
	}

	// No suffix means one CPU; mixing CPU counts is an error.
	if _, procs, err := parse(strings.NewReader("BenchmarkX 10 5 ns/op\n")); err != nil || procs != 1 {
		t.Errorf("unsuffixed: GOMAXPROCS %d, err %v; want 1", procs, err)
	}
	if _, _, err := parse(strings.NewReader("BenchmarkX 10 5 ns/op\nBenchmarkX-4 10 5 ns/op\n")); err == nil {
		t.Error("mixed GOMAXPROCS accepted")
	}
}

func TestMergeKeepsOtherSections(t *testing.T) {
	existing := []byte(`{"sections":{"baseline":{"go":"go1.0","recorded":"x","benchmarks":{"b":{"ns/op":100}}}}}`)
	data, err := merge(existing, "current", &section{
		Go:         "go1.24",
		Recorded:   "now",
		Benchmarks: map[string]metrics{"b": {"ns/op": 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var traj trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Sections) != 2 {
		t.Fatalf("sections %v, want baseline+current", traj.Sections)
	}
	if traj.Sections["baseline"].Benchmarks["b"]["ns/op"] != 100 {
		t.Error("baseline section was clobbered")
	}
	if traj.Sections["current"].Benchmarks["b"]["ns/op"] != 10 {
		t.Error("current section not recorded")
	}
}

func TestRunEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"-out", out, "-section", "current"}, strings.NewReader(sample), os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if traj.Sections["current"] == nil || len(traj.Sections["current"].Benchmarks) != 3 || traj.Sections["current"].GOMAXPROCS != 8 {
		t.Fatalf("bad trajectory: %s", data)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"-out", out}, strings.NewReader("no benchmarks here\n"), discard{})
	if err == nil {
		t.Fatal("want error on empty benchmark input")
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Error("file should not be written on empty input")
	}
}

// discard is a throwaway writer for tests that don't care about stderr.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
