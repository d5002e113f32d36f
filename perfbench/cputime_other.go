//go:build !linux

package main

import "time"

// Where there is no per-thread CPU clock, the engine workloads fall back
// to wall time.
var epoch = time.Now()

func threadCPU() time.Duration  { return time.Since(epoch) }
func processCPU() time.Duration { return time.Since(epoch) }
