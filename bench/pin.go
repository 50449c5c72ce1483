package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// shareOneCPU restricts every thread of the harness — and so every daemon
// it starts afterwards, which inherits the mask and sees a 1-CPU machine —
// to the highest-numbered CPU (device interrupts and most timer work land
// on CPU 0 here).
//
// The three workloads whose median request takes well under a millisecond
// use it. With client and daemon on different vCPUs every request costs two
// cross-CPU wake-ups, which in this VM are more than half the request
// (warm-hit: 0.16 ms of daemon CPU per request against 0.075 ms when the two
// share a CPU) and nearly all of its run-to-run noise (throughput of one
// seed spread over 35 % peak to peak against 9 %): the numbers would track
// the hypervisor, not internal/server. Workloads that compute for
// milliseconds keep both CPUs; for them sharing one was noisier.
func shareOneCPU() error {
	var mask [128]byte // room for 1024 CPUs
	cpu := runtime.NumCPU() - 1
	mask[cpu/8] = 1 << (cpu % 8)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return err
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
			return errno
		}
	}
	return nil
}
