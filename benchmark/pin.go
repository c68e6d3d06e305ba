package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU binds every thread of the process, and so every thread it
// starts later, to the highest-numbered CPU the process may run on, and
// returns that CPU.
//
// GOMAXPROCS(1) alone leaves the kernel free to move the one running
// thread between the vCPUs, and to wake the runtime's other threads
// (sysmon, the netpoller, a thread taking over the P from a slow system
// call) on another one: each move costs a cold cache and each such wake-up
// an inter-processor interrupt whose price the hypervisor sets. README.md,
// design rule 1, has the measurement.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // room for 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := int(n)/8 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i] != 0 {
			cpu = i*64 + bits.Len64(mask[i]) - 1
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)

	// sched_setaffinity binds one thread; threads cloned from a bound
	// thread inherit its mask, so binding those that exist now is enough.
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0, fmt.Errorf("listing threads: %w", err)
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
		// A thread that exited since the listing is not an error.
		if errno != 0 && errno != syscall.ESRCH {
			return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
		}
	}
	return cpu, nil
}
