package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has used so far, user and system, over
// all its threads. It is the clock of the end-to-end metrics: on a virtual
// machine whose host runs other machines too, wall-clock time also counts the
// intervals in which the host ran something else (steal), which come and go
// with the host's load; the kernel leaves steal out of a process's CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
