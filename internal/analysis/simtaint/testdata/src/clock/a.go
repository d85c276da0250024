// Fixture for simtaint's wall-clock source sites: referencing a function
// that reads or waits on the host clock is a violation, virtual-time
// arithmetic on time.Duration/time.Time values is not.
package clock

import (
	"fmt"
	"time"
)

func violations() {
	now := time.Now() // want `wall-clock time\.Now in simulated code`
	_ = now
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep in simulated code`
	<-time.After(time.Second)    // want `wall-clock time\.After in simulated code`
	_ = time.Since(now)          // want `wall-clock time\.Since in simulated code`
	_ = time.Tick(time.Second)   // want `wall-clock time\.Tick in simulated code`
	t := time.NewTimer(0)        // want `wall-clock time\.NewTimer in simulated code`
	t.Stop()
}

// passing a banned function as a value is just as much a clock dependency
// as calling it.
func asValue() func() time.Time {
	return time.Now // want `wall-clock time\.Now in simulated code`
}

func fine(virtual time.Duration) {
	deadline := virtual + 50*time.Millisecond
	if deadline > time.Second {
		fmt.Println("late")
	}
	_ = time.Unix(0, int64(virtual)) // constructing a time.Time is not reading the clock
	_ = time.Duration(42).String()
}

func suppressed() {
	_ = time.Now() //spritelint:allow simtaint fixture exercises the escape hatch
}

func suppressedLineAbove() {
	//spritelint:allow simtaint fixture exercises the line-above form
	time.Sleep(time.Millisecond)
}
