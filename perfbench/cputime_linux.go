//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// CPU clocks. On a virtual machine whose kernel accounts steal time
// (paravirtual time accounting), these clocks stop while the hypervisor
// runs another guest on our CPU, where a wall clock keeps running. The
// engine workloads time with them, so a busy neighbour does not read as a
// slower dynacrowd.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the calling OS thread's CPU time; the caller must hold the
// thread (runtime.LockOSThread) between two readings.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the CPU time of every thread of the process, the garbage
// collector's included.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }
