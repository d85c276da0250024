package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite every table golden under testdata/")

// quick enables Metrics so TestDeterminism doubles as the golden check
// that MetricsSnapshot is byte-identical across same-seed runs of every
// experiment driver.
func quick() Config { return Config{Seed: 42, Quick: true, Metrics: true} }

// cell parses a numeric cell.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("table %s: no cell (%d,%d)\n%s", tbl.ID, row, col, tbl)
	}
	s := strings.TrimSuffix(tbl.Rows[row][col], "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q not numeric", tbl.ID, row, col, tbl.Rows[row][col])
	}
	return v
}

// findRow locates the first row whose first cells match the given prefix.
func findRow(t *testing.T, tbl *Table, prefix ...string) int {
	t.Helper()
	for i, row := range tbl.Rows {
		ok := len(row) >= len(prefix)
		for j := range prefix {
			if ok && row[j] != prefix[j] {
				ok = false
			}
		}
		if ok {
			return i
		}
	}
	t.Fatalf("table %s: no row with prefix %v\n%s", tbl.ID, prefix, tbl)
	return -1
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tbl, err := r.Run(quick())
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

func TestE1CostGrowsWithStateSize(t *testing.T) {
	tbl, err := E1MigrationBreakdown(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Quick sweep: files {0,4} x dirtyMB {0,4}.
	base := cell(t, tbl, findRow(t, tbl, "0", "0"), 2)
	files := cell(t, tbl, findRow(t, tbl, "4", "0"), 2)
	vm := cell(t, tbl, findRow(t, tbl, "0", "4"), 2)
	if files <= base {
		t.Errorf("open files did not increase migration time: base=%v files=%v", base, files)
	}
	if vm <= base {
		t.Errorf("dirty VM did not increase migration time: base=%v vm=%v", base, vm)
	}
	if vm <= files {
		t.Errorf("4MB of dirty VM (%vms) should dominate 4 open files (%vms)", vm, files)
	}
}

func TestE2RemoteExecIsConstantOverhead(t *testing.T) {
	tbl, err := E2RemoteExec(quick())
	if err != nil {
		t.Fatal(err)
	}
	local0 := cell(t, tbl, findRow(t, tbl, "local fork+exec", "0"), 2)
	remote0 := cell(t, tbl, findRow(t, tbl, "remote exec", "0"), 2)
	if remote0 <= local0 {
		t.Errorf("remote exec (%v) should cost more than local (%v)", remote0, local0)
	}
	// But not wildly more: no VM moves.
	if remote0 > local0*6 {
		t.Errorf("remote exec (%v) should be a modest multiple of local (%v)", remote0, local0)
	}
}

func TestE3StrategyShapes(t *testing.T) {
	tbl, err := E3VMStrategies(quick())
	if err != nil {
		t.Fatal(err)
	}
	// At 4MB dirty: COR freezes far less than full copy; full copy's
	// resume is free; COR's resume is expensive; pre-copy freeze < full.
	corFreeze := cell(t, tbl, findRow(t, tbl, "copy-on-reference", "4"), 3)
	fullFreeze := cell(t, tbl, findRow(t, tbl, "full-copy", "4"), 3)
	preFreeze := cell(t, tbl, findRow(t, tbl, "pre-copy", "4"), 3)
	if corFreeze >= fullFreeze {
		t.Errorf("COR freeze %v should be << full-copy freeze %v", corFreeze, fullFreeze)
	}
	if preFreeze >= fullFreeze {
		t.Errorf("pre-copy freeze %v should be < full-copy freeze %v", preFreeze, fullFreeze)
	}
	corResume := cell(t, tbl, findRow(t, tbl, "copy-on-reference", "4"), 4)
	fullResume := cell(t, tbl, findRow(t, tbl, "full-copy", "4"), 4)
	if corResume <= fullResume {
		t.Errorf("COR resume %v should exceed full-copy resume %v", corResume, fullResume)
	}
	// Sprite's flush grows with dirty size.
	s1 := cell(t, tbl, findRow(t, tbl, "sprite-flush", "1"), 2)
	s4 := cell(t, tbl, findRow(t, tbl, "sprite-flush", "4"), 2)
	if s4 <= s1 {
		t.Errorf("sprite flush at 4MB (%v) should exceed 1MB (%v)", s4, s1)
	}
}

func TestE4ForwardedCallsPayRPC(t *testing.T) {
	tbl, err := E4Forwarding(quick())
	if err != nil {
		t.Fatal(err)
	}
	// getpid: same home and away.
	r := findRow(t, tbl, "getpid")
	if home, away := cell(t, tbl, r, 2), cell(t, tbl, r, 3); away > home*1.2 {
		t.Errorf("getpid should be location independent: home=%v away=%v", home, away)
	}
	// gettimeofday: away >> home.
	r = findRow(t, tbl, "gettimeofday")
	if home, away := cell(t, tbl, r, 2), cell(t, tbl, r, 3); away < home*3 {
		t.Errorf("forwarded gettimeofday should pay an RPC: home=%v away=%v", home, away)
	}
}

func TestE5SpeedupGrowsThenFlattens(t *testing.T) {
	tbl, err := E5PmakeSpeedup(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Quick sweep: hosts {1,4,8}.
	s1 := cell(t, tbl, findRow(t, tbl, "1"), 2)
	s4 := cell(t, tbl, findRow(t, tbl, "4"), 2)
	s8 := cell(t, tbl, findRow(t, tbl, "8"), 2)
	if s1 != 1.0 {
		t.Errorf("speedup(1) = %v", s1)
	}
	if s4 < 1.8 {
		t.Errorf("speedup(4) = %v, want >= 1.8", s4)
	}
	if s8 <= s4 {
		t.Errorf("speedup should still grow at 8 hosts: s4=%v s8=%v", s4, s8)
	}
	// Sub-linear: the sequential link and server contention bite.
	if s8 > 6.5 {
		t.Errorf("speedup(8) = %v, want sub-linear", s8)
	}
}

func TestE6SimulationsBeatPmakeUtilization(t *testing.T) {
	tbl, err := E6Utilization(quick())
	if err != nil {
		t.Fatal(err)
	}
	simU := cell(t, tbl, 0, 5)
	pmakeU := cell(t, tbl, 1, 5)
	if simU <= pmakeU {
		t.Errorf("independent simulations (%v%%) should beat pmake (%v%%)", simU, pmakeU)
	}
	if simU < 300 {
		t.Errorf("simulations utilization %v%%, want several hundred percent", simU)
	}
}

func TestE7CentralLatencyBand(t *testing.T) {
	tbl, err := E7SelectionLatency(quick())
	if err != nil {
		t.Fatal(err)
	}
	r := findRow(t, tbl, "central")
	mean := cell(t, tbl, r, 1)
	if mean < 10 || mean > 150 {
		t.Errorf("central select+release = %vms, want tens of ms (paper: 56ms)", mean)
	}
}

func TestE9ReclaimGrowsWithDirtyVM(t *testing.T) {
	tbl, err := E9Eviction(quick())
	if err != nil {
		t.Fatal(err)
	}
	r0 := cell(t, tbl, findRow(t, tbl, "0"), 1)
	r4 := cell(t, tbl, findRow(t, tbl, "4"), 1)
	if r4 <= r0 {
		t.Errorf("reclaim with 4MB dirty (%vms) should exceed 0MB (%vms)", r4, r0)
	}
}

func TestE10IdleBand(t *testing.T) {
	tbl, err := E10IdleFraction(quick())
	if err != nil {
		t.Fatal(err)
	}
	day := cell(t, tbl, 0, 1)
	night := cell(t, tbl, 1, 1)
	if day < 50 || day > 85 {
		t.Errorf("day idle = %v%%, want in the thesis band (~65-70%%)", day)
	}
	if night <= day-30 || night < 60 {
		t.Errorf("night idle = %v%%, want higher than day (~80%%)", night)
	}
}

func TestE11PolicyOrdering(t *testing.T) {
	tbl, err := E11PlacementVsMigration(quick())
	if err != nil {
		t.Fatal(err)
	}
	none := cell(t, tbl, 0, 2)
	placement := cell(t, tbl, 1, 2)
	both := cell(t, tbl, 2, 2)
	if placement >= none {
		t.Errorf("placement (%vs) should beat no load sharing (%vs)", placement, none)
	}
	if both > placement*1.15 {
		t.Errorf("placement+migration (%vs) should not be much worse than placement (%vs)", both, placement)
	}
}

func TestE12CoversAllPolicies(t *testing.T) {
	tbl, err := E12SyscallTable(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 policies", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if n := cell(t, tbl, findRow(t, tbl, row[0]), 1); n < 1 {
			t.Errorf("policy %s has no calls", row[0])
		}
	}
}

func TestE13OnlyHomeCallsPay(t *testing.T) {
	tbl, err := E13RemotePenalty(quick())
	if err != nil {
		t.Fatal(err)
	}
	compute := cell(t, tbl, findRow(t, tbl, "compute-bound"), 3)
	io := cell(t, tbl, findRow(t, tbl, "file I/O heavy"), 3)
	home := cell(t, tbl, findRow(t, tbl, "home-call heavy"), 3)
	if compute > 1 {
		t.Errorf("compute-bound slowdown = %v%%, want ~0", compute)
	}
	if io > 2 {
		t.Errorf("file-I/O slowdown = %v%%, want ~0 (FS is location transparent)", io)
	}
	if home < 5 {
		t.Errorf("home-call slowdown = %v%%, want noticeable", home)
	}
}

func TestE14BatchRunsRemotely(t *testing.T) {
	tbl, err := E14DayInTheLife(quick())
	if err != nil {
		t.Fatal(err)
	}
	remote := cell(t, tbl, findRow(t, tbl, "remote share of batch CPU (%)"), 1)
	if remote < 50 {
		t.Errorf("remote CPU share = %v%%, want most of the batch off the submit host", remote)
	}
	migs := cell(t, tbl, findRow(t, tbl, "total migrations"), 1)
	if migs < 5 {
		t.Errorf("migrations = %v, want a working load-sharing day", migs)
	}
}

// TestE19EveryAblationSeparates asserts the direction each row group
// claims: listed in the order the value must strictly rise, so a design
// choice whose arms read the same fails here instead of being printed.
func TestE19EveryAblationSeparates(t *testing.T) {
	tbl, err := E19Ablations(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		choice, measure string
		rising          []string
	}{
		{"name-lookup cost", "pmake speedup at 8 hosts", []string{"8ms", "500µs"}},
		{"client caching", "pmake makespan s at 4 hosts", []string{"delayed write-back", "write-through"}},
		{"network", "4 MB migration ms beside bulk traffic", []string{"dedicated paths", "shared medium"}},
		{"eviction destination", "evicted guest done at s", []string{"evict to an idle host", "evict home"}},
		{"cpu quantum", "request-to-done ms, mean of 8 offsets", []string{"5ms", "20ms", "100ms"}},
		{"cpu quantum", "request-to-done ms, worst of 8 offsets", []string{"5ms", "20ms", "100ms"}},
	} {
		prev := -1.0
		for _, arm := range g.rising {
			v := cell(t, tbl, findRow(t, tbl, g.choice, g.measure, arm), 3)
			if v <= prev {
				t.Errorf("%s: %s at %q = %v, want above %v", g.choice, g.measure, arm, v, prev)
			}
			prev = v
		}
	}
}

func TestE20MigrationBeatsBothBaselines(t *testing.T) {
	tbl, err := E20Baselines(quick())
	if err != nil {
		t.Fatal(err)
	}
	r := findRow(t, tbl, "moving a running job")
	if mig, ckpt := cell(t, tbl, r, 3), cell(t, tbl, r+1, 3); ckpt < 3*mig {
		t.Errorf("checkpoint/restart (%vms) should cost several times a migration (%vms)", ckpt, mig)
	}
	r = findRow(t, tbl, "remote transparency")
	if selective, all := cell(t, tbl, r, 3), cell(t, tbl, r+1, 3); all < 5*selective {
		t.Errorf("forwarding every call (%vms) should cost many times selective forwarding (%vms)", all, selective)
	}
}

// TestGoldenComparisonTables pins every virtual-time table byte for byte at
// seed 42 — the numbers EXPERIMENTS.md quotes. Full mode, except E16 and
// E18, whose full sweeps take minutes and are pinned at their quick sizes;
// E17 reports host wall-clock and has no golden. Regenerate with
// -update-golden when a cost model change is intentional.
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
			got := tbl.String()
			golden := filepath.Join("testdata", r.ID+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("table changed vs %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestDeterminism runs every experiment driver twice with the same seed and
// requires byte-identical output rows: the tables are pure functions of the
// configuration, which is what makes a fuzzer seed a complete reproduction.
// quick() turns metrics capture on, so the comparison also proves each
// driver's MetricsSnapshot renders byte-identically across same-seed runs.
func TestDeterminism(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			if r.ID == "E17" {
				// E17's table is wallclock (real time) by design; its
				// determinism claim — identical order digests across
				// kernels — is asserted inside the driver
				// (TestE17QuickTable).
				t.Skip("wallclock output is not byte-reproducible by design")
			}
			a, err := r.Run(quick())
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
	metered, err := E1MigrationBreakdown(quick())
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
