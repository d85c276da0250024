package spawned

import "sprite/internal/sim"

// _test.go files are exempt: tests routinely capture state and assert on
// it after Run returns, which the kernel's end-of-run barrier makes safe.
func testOnly(s *sim.Simulation, n *int) {
	s.SpawnOn(1, "t", func(env *sim.Env) error {
		*n++
		return nil
	})
}
