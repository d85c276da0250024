package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchFleet mirrors bench/BENCH_fleet.json: bounds on the quick-mode
// fleet economy sweep. Virtual time makes the run deterministic, so the
// gate is exact — a drift past any bound is a real behaviour change, not
// noise.
type benchFleet struct {
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
	Gate       struct {
		MinGoodput     float64 `json:"min_goodput"`
		MaxJobsLost    int     `json:"max_jobs_lost"`
		MaxDrainMeanMs float64 `json:"max_drain_mean_ms"`
		MaxMeanJobMs   float64 `json:"max_mean_job_ms"`
	} `json:"gate"`
}

// TestFleetEconomyGate runs the quick fleet sweep at the checked-in seed
// and gates it against bench/BENCH_fleet.json: no storm intensity may
// lose a job or dent goodput (every host comes back, so lost work is a
// control-plane bug), drains must complete as fast as the baseline
// promises, and job latency must stay inside the ceiling even under the
// hurricane schedule.
func TestFleetEconomyGate(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "BENCH_fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base benchFleet
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}

	tbl, err := E18FleetEconomy(Config{Seed: base.Seed, Quick: base.Quick})
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
		if r.Goodput < base.Gate.MinGoodput {
			t.Errorf("%s: goodput %.2f below baseline floor %.2f (bench/BENCH_fleet.json)",
				r.Intensity, r.Goodput, base.Gate.MinGoodput)
		}
		if r.JobsLost > base.Gate.MaxJobsLost {
			t.Errorf("%s: %d jobs lost, baseline allows %d", r.Intensity, r.JobsLost, base.Gate.MaxJobsLost)
		}
		if r.DrainsCompleted != r.DrainsStarted {
			t.Errorf("%s: %d of %d drains completed — a drain stalled past the horizon",
				r.Intensity, r.DrainsCompleted, r.DrainsStarted)
		}
		if r.DrainMeanMs > base.Gate.MaxDrainMeanMs {
			t.Errorf("%s: drain mean %.1fms exceeds baseline ceiling %.1fms",
				r.Intensity, r.DrainMeanMs, base.Gate.MaxDrainMeanMs)
		}
		if r.MeanJobMs > base.Gate.MaxMeanJobMs {
			t.Errorf("%s: mean job latency %.1fms exceeds baseline ceiling %.1fms",
				r.Intensity, r.MeanJobMs, base.Gate.MaxMeanJobMs)
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
