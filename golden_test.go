// Determinism tests: the experiment drivers must produce bit-identical
// tables for a fixed seed, run after run and process after process. The
// tables themselves are pinned by internal/experiments'
// TestGoldenComparisonTables.
package sprite_test

import (
	"strings"
	"testing"

	"sprite/internal/experiments"
)

// TestExperimentsAreReproducible runs every driver twice with the same
// seed and requires identical tables.
func TestExperimentsAreReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := experiments.Config{Seed: 7, Quick: true}
	for _, r := range experiments.All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			if r.ID == "E17" {
				// E17's table is wallclock (real time) by design; its
				// determinism claim — identical order digests across
				// kernels — is asserted inside the driver
				// (internal/experiments TestE17QuickTable).
				t.Skip("wallclock output is not byte-reproducible by design")
			}
			a, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("%s not reproducible:\n%s\nvs\n%s", r.ID, a, b)
			}
		})
	}
}

// TestSeedChangesOutcome guards against accidentally ignoring the seed:
// stochastic experiments must differ across seeds.
func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed int64) string {
		tbl, err := experiments.E11PlacementVsMigration(experiments.Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical E11 tables")
	}
}

// TestTablesRenderCleanly: every table renders with aligned columns and a
// paper reference.
func TestTablesRenderCleanly(t *testing.T) {
	cfg := experiments.Config{Seed: 42, Quick: true}
	for _, r := range []string{"E12", "E13"} {
		tbl, err := experiments.Find(r).Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := tbl.String()
		if !strings.Contains(s, "[paper:") {
			t.Errorf("%s missing paper reference:\n%s", r, s)
		}
		lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
		if len(lines) < 4 {
			t.Errorf("%s too short:\n%s", r, s)
		}
	}
}
