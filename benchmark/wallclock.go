package main

import "time"

// Every host-clock read of the benchmark lives in this file: the harness
// measures what simulating costs on the host, which is the one thing
// simulated code must never observe. The file's base name is on the
// walltime analyzer's allow list for exactly that reason; nothing here is
// reachable from a simulated activity except wallNow, which only the span
// recorder calls, and only into its own buffers.

// benchEpoch anchors wallNow so spans carry small offsets, not dates.
var benchEpoch = time.Now()

// wallNow returns monotonic host nanoseconds since the harness started.
func wallNow() int64 { return int64(time.Since(benchEpoch)) }

// timeCall runs fn and returns the host nanoseconds it took.
func timeCall(fn func() error) (int64, error) {
	t0 := wallNow()
	err := fn()
	return wallNow() - t0, err
}
