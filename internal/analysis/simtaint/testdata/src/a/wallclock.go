// wallclock.go sits on the wall-clock allow list: the wall-clock budget
// plumbing legitimately reports real elapsed time. simtaint still
// computes taint through this file but suppresses wall-clock sink hits
// inside it.
package a

import (
	sim "sprite/internal/sim"
	"sprite/internal/trace"
)

func wallReport(env *sim.Env) {
	env.Emit(trace.Event{Name: stamp()})
}
