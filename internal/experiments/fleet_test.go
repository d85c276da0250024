package experiments

import "testing"

// Bounds on the quick-mode fleet economy sweep at seed 42 (the
// configuration E18.golden pins byte for byte). Virtual time makes the run
// deterministic, so the gate is exact — a drift past any bound is a real
// behaviour change, not noise.
const (
	fleetMinGoodput     = 1.0
	fleetMaxJobsLost    = 0
	fleetMaxDrainMeanMs = 400.0
	fleetMaxMeanJobMs   = 6000.0
)

// TestFleetEconomyGate runs the quick fleet sweep at seed 42 and gates it:
// no storm intensity may lose a job or dent goodput (every host comes
// back, so lost work is a control-plane bug), drains must complete within
// the ceiling, and job latency must stay inside the ceiling even under the
// hurricane schedule.
func TestFleetEconomyGate(t *testing.T) {
	tbl, err := E18FleetEconomy(Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Data.([]*e18Row)
	if len(rows) == 0 {
		t.Fatal("no rows in fleet economy snapshot")
	}
	var hurricane *e18Row
	for _, r := range rows {
		if r.Intensity == "hurricane" {
			hurricane = r
		}
		if r.Goodput < fleetMinGoodput {
			t.Errorf("%s: goodput %.2f below floor %.2f", r.Intensity, r.Goodput, fleetMinGoodput)
		}
		if r.JobsLost > fleetMaxJobsLost {
			t.Errorf("%s: %d jobs lost, gate allows %d", r.Intensity, r.JobsLost, fleetMaxJobsLost)
		}
		if r.DrainsCompleted != r.DrainsStarted {
			t.Errorf("%s: %d of %d drains completed — a drain stalled past the horizon",
				r.Intensity, r.DrainsCompleted, r.DrainsStarted)
		}
		if r.DrainMeanMs > fleetMaxDrainMeanMs {
			t.Errorf("%s: drain mean %.1fms exceeds ceiling %.1fms", r.Intensity, r.DrainMeanMs, fleetMaxDrainMeanMs)
		}
		if r.MeanJobMs > fleetMaxMeanJobMs {
			t.Errorf("%s: mean job latency %.1fms exceeds ceiling %.1fms", r.Intensity, r.MeanJobMs, fleetMaxMeanJobMs)
		}
	}
	if hurricane == nil {
		t.Fatal("no hurricane row in fleet economy snapshot")
	}
	// The hurricane drains must actually move work — a sweep where every
	// drained host happened to be empty gates nothing.
	if hurricane.Migrated+hurricane.Evacuated == 0 {
		t.Error("hurricane drains moved no residents: the storm no longer intersects placements")
	}
}
