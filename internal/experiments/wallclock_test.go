package experiments

import "testing"

// TestE17QuickTable exercises the full driver at quick scale. The driver
// itself fails on a digest that differs between the serial oracle and any
// worker count, on either workload, so a green run is the equivalence
// check; the env pin keeps the oracle serial under a SPRITE_SIM_PARALLEL
// leg.
func TestE17QuickTable(t *testing.T) {
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	tbl, err := E17ParallelWallclock(Config{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := tbl.Data.([]*e17Row)
	if len(rows) < 8 || len(rows) != len(tbl.Rows) {
		t.Fatalf("expected (serial + >=3 parallel rows) x 2 workloads, got %d data rows, %d table rows", len(rows), len(tbl.Rows))
	}
}
