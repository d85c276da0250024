// Stub of sprite/internal/trace shared by every analyzer fixture: the
// event sim.Env.Emit takes.
package trace

type Event struct {
	Name string
	Host int
}
