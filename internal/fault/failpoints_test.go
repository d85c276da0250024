package fault

import (
	"testing"

	"sprite/internal/core"
)

// The fuzzer draws a fault kind by indexing a seeded random value into
// migPoints, so its order is part of the replay contract: reordering it
// changes every recorded scenario digest. This pin makes such a change an
// explicit, test-visible decision.
func TestMigrationFailpointOrderPinned(t *testing.T) {
	want := []core.Failpoint{core.FailMigInit, core.FailMigVM, core.FailMigStreams, core.FailMigPCB}
	if len(migPoints) != len(want) {
		t.Fatalf("migPoints = %v, want %v", migPoints, want)
	}
	for i := range want {
		if migPoints[i] != want[i] {
			t.Errorf("migPoints[%d] = %v, want %v (order is replay-significant)", i, migPoints[i], want[i])
		}
	}
}

// allFailpoints lists every named point in declaration order.
func allFailpoints() []core.Failpoint {
	var all []core.Failpoint
	for fp := core.Failpoint(1); fp.String() != ""; fp++ {
		all = append(all, fp)
	}
	return all
}

func TestFailpointNamesUnique(t *testing.T) {
	if name := core.Failpoint(0).String(); name != "" {
		t.Errorf("the zero Failpoint renders as %q, want \"\"", name)
	}
	seen := make(map[string]bool)
	for _, fp := range allFailpoints() {
		if seen[fp.String()] {
			t.Errorf("duplicate failpoint name %q", fp)
		}
		seen[fp.String()] = true
	}
}

// TestEveryFailpointConsulted runs the smoke seeds of TestClusterFuzz and
// TestFleetFuzz and requires that between them they reach every failpoint:
// a point whose last consult site is deleted still compiles, but fails
// here.
func TestEveryFailpointConsulted(t *testing.T) {
	seen := make(map[core.Failpoint]bool)
	note := func(res *Result) {
		for fp := range res.Consulted {
			seen[fp] = true
		}
	}
	for i := int64(0); i < fuzzSmokeN; i++ {
		note(runScenario(GenScenario(1000+i), kernelCfg{}))
	}
	for i := int64(0); i < fleetSmokeN; i++ {
		note(runFleetScenario(GenFleetScenario(5000+i), kernelCfg{}))
	}
	for _, fp := range allFailpoints() {
		if !seen[fp] {
			t.Errorf("no smoke seed consults failpoint %v: restore its consult site or delete the constant", fp)
		}
	}
}
