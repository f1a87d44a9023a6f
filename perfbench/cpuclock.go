package main

import (
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPU is Linux's CLOCK_PROCESS_CPUTIME_ID: CPU time consumed
// by every thread of the process. The kernel does not count time the
// hypervisor stole from the virtual CPUs, which wall time does count.
const clockProcessCPU = 2

// processCPU reads the process CPU-time clock.
func processCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuClockCost is the median CPU time two back-to-back processCPU reads
// measure: the part of a read's own cost that lands inside the interval
// it brackets, subtracted from every per-call reading.
func cpuClockCost() time.Duration {
	ds := make([]time.Duration, 1001)
	for i := range ds {
		c0 := processCPU()
		ds[i] = processCPU() - c0
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}
