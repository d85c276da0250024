// bench_test.go files are the wall-clock benchmark path and may read the
// host clock (dataflow.WallClockFile): measuring the simulator's real
// speed requires the real clock.
package clock

import "time"

func benchTiming() time.Duration {
	start := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(start)
}
