package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite every table golden under testdata/")

// quick enables Metrics so TestDeterminism doubles as the golden check
// that MetricsSnapshot is byte-identical across same-seed runs of every
// experiment driver.
func quick() Config { return Config{Seed: 42, Quick: true, Metrics: true} }

// quickTables memoises each runner's quick() table, so the tests that
// check it share one build per test binary.
var quickTables sync.Map // runner ID → func() (*Table, error)

// quickTable returns the memoised quick() table of runner id.
func quickTable(id string) (*Table, error) {
	build, _ := quickTables.LoadOrStore(id, sync.OnceValues(func() (*Table, error) { return Find(id).Run(quick()) }))
	return build.(func() (*Table, error))()
}

// holds fails t unless runner id's quick table passes its verdict.
func holds(t *testing.T, id string) {
	t.Helper()
	tbl, err := quickTable(id)
	if err == nil {
		err = verdict(tbl)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			tbl, err := quickTable(r.ID)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", r.ID)
			}
			if tbl.String() == "" {
				t.Fatalf("%s renders empty", r.ID)
			}
		})
	}
}

func TestFindLocatesRunners(t *testing.T) {
	if Find("e5") == nil || Find("E12") == nil || Find("e19") == nil || Find("E20") == nil {
		t.Fatal("Find failed on valid ids")
	}
	if Find("E99") != nil {
		t.Fatal("Find returned a runner for a bogus id")
	}
}

// The shape tests and the two gates hold the quick seed-42 tables to their
// verdicts (verdicts_test.go).
func TestE1CostGrowsWithStateSize(t *testing.T)          { holds(t, "E1") }
func TestE2RemoteExecIsConstantOverhead(t *testing.T)    { holds(t, "E2") }
func TestE3StrategyShapes(t *testing.T)                  { holds(t, "E3") }
func TestE4ForwardedCallsPayRPC(t *testing.T)            { holds(t, "E4") }
func TestE5SpeedupGrowsThenFlattens(t *testing.T)        { holds(t, "E5") }
func TestE6SimulationsBeatPmakeUtilization(t *testing.T) { holds(t, "E6") }
func TestE7CentralLatencyBand(t *testing.T)              { holds(t, "E7") }
func TestE9ReclaimGrowsWithDirtyVM(t *testing.T)         { holds(t, "E9") }
func TestE10IdleBand(t *testing.T)                       { holds(t, "E10") }
func TestE11PolicyOrdering(t *testing.T)                 { holds(t, "E11") }
func TestE12CoversAllPolicies(t *testing.T)              { holds(t, "E12") }
func TestE13OnlyHomeCallsPay(t *testing.T)               { holds(t, "E13") }
func TestE14BatchRunsRemotely(t *testing.T)              { holds(t, "E14") }
func TestE19EveryAblationSeparates(t *testing.T)         { holds(t, "E19") }
func TestE20MigrationBeatsBothBaselines(t *testing.T)    { holds(t, "E20") }
func TestGossipMisplaceGate(t *testing.T)                { holds(t, "E16") }
func TestFleetEconomyGate(t *testing.T)                  { holds(t, "E18") }

// TestGoldenComparisonTables pins every virtual-time table byte for byte at
// seed 42 — the numbers EXPERIMENTS.md quotes — and holds it to its
// verdict. Full mode, except E16 and E18, whose full sweeps take minutes
// and are pinned at their quick sizes; E17 reports host wall-clock and has
// no golden. Regenerate with -update-golden when a cost model change is
// intentional: only a changed table that passes its verdict is written.
func TestGoldenComparisonTables(t *testing.T) {
	for _, r := range All() {
		if r.ID == "E17" {
			continue
		}
		t.Run(r.ID, func(t *testing.T) {
			tbl, err := r.Run(Config{Seed: 42, Quick: r.ID == "E16" || r.ID == "E18"})
			if err != nil {
				t.Fatal(err)
			}
			if err := verdict(tbl); err != nil {
				t.Fatal(err)
			}
			got := tbl.String()
			golden := filepath.Join("testdata", r.ID+".golden")
			want, err := os.ReadFile(golden)
			if *updateGolden && got != string(want) {
				err = os.WriteFile(golden, []byte(got), 0o644)
				want = []byte(got)
			}
			if err != nil {
				t.Fatalf("golden %s (regenerate with -update-golden): %v", golden, err)
			}
			if got != string(want) {
				t.Fatalf("table changed vs %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestDeterminism runs every experiment driver a second time with the same
// seed and requires byte-identical output rows: the tables are pure
// functions of the configuration, which is what makes a fuzzer seed a
// complete reproduction. quick() turns metrics capture on, so the
// comparison also proves each driver's MetricsSnapshot renders
// byte-identically across same-seed runs. The rerun is held to its verdict.
func TestDeterminism(t *testing.T) {
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			if r.ID == "E17" {
				// E17's table is wallclock (real time) by design; its
				// determinism claim — identical order digests across
				// kernels — is asserted inside the driver
				// (TestE17QuickTable).
				t.Skip("wallclock output is not byte-reproducible by design")
			}
			a, err := quickTable(r.ID)
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.Run(quick())
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("same seed produced different tables:\n%s\nvs\n%s", a, b)
			}
			if err := verdict(b); err != nil {
				t.Fatal(err)
			}
			// Every cluster-running driver must actually surface metrics
			// (E12 is a static census with no cluster).
			if r.ID != "E12" && len(a.Metrics) == 0 {
				t.Fatalf("%s captured no metrics sections", r.ID)
			}
		})
	}
}

// TestMetricsOffLeavesTablesUnchanged pins the inert-by-default contract:
// with Config.Metrics unset the rendered table is byte-identical to a
// metrics-enabled run with its metrics section stripped — the plane may
// observe an experiment, never perturb it.
func TestMetricsOffLeavesTablesUnchanged(t *testing.T) {
	cfg := quick()
	cfg.Metrics = false
	plain, err := E1MigrationBreakdown(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Metrics) != 0 {
		t.Fatal("metrics sections captured with Metrics off")
	}
	metered, err := quickTable("E1")
	if err != nil {
		t.Fatal(err)
	}
	if len(metered.Metrics) == 0 {
		t.Fatal("no metrics sections captured with Metrics on")
	}
	stripped := *metered
	stripped.Metrics = nil
	if plain.String() != stripped.String() {
		t.Fatalf("metrics capture changed the table:\n%s\nvs\n%s", plain, &stripped)
	}
}
