// Package experiments contains one driver per reproduced table/figure of
// the thesis (see DESIGN.md §4 and EXPERIMENTS.md). Each driver builds its
// own cluster(s) from a seed, runs the workload, and returns a Table whose
// rows mirror what the paper reports. The spritesim CLI and the tests call
// these drivers.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"sprite/internal/core"
	"sprite/internal/metrics"
	"sprite/internal/recovery"
)

// Config controls an experiment run.
type Config struct {
	// Seed makes the run reproducible.
	Seed int64
	// Quick shrinks sweeps to test size.
	Quick bool
	// Metrics attaches each cluster's metrics snapshot to the table
	// (rendered after the notes). Off by default, so standard outputs are
	// byte-identical with or without the metrics plane.
	Metrics bool
	// Crashes overrides the recovery experiment's (E15) default fault
	// schedule; parsed from repeated spritesim -crash flags.
	Crashes []recovery.CrashSpec
	// Hosts overrides the primary scale knob of the scale-aware
	// experiments: E16's and E18's fleet size (replacing the standard
	// sweep), E17's load-daemon count and the confined scale tier's host
	// count. Zero keeps each experiment's default.
	Hosts int
}

// params is the calibration every experiment runs on: the Sun-3 / 10 Mbit
// constants of EXPERIMENTS.md's "Calibration constants that matter". It is
// the package's one core.DefaultParams call; every cluster and every page
// size a driver reports comes from it.
func (cfg Config) params() core.Params { return core.DefaultParams() }

// binary is a program image seeded into a new cluster.
type binary struct {
	path string
	size int
}

// progBinary backs workerCfg's standard test process.
var progBinary = binary{"/bin/prog", 128 << 10}

// cluster is the package's one cluster constructor: workstations and file
// servers on cfg.params(), adjusted by tune when it is non-nil, with bins
// seeded in order.
func (cfg Config) cluster(seed int64, workstations, servers int, tune func(*core.Params), bins ...binary) (*core.Cluster, error) {
	params := cfg.params()
	if tune != nil {
		tune(&params)
	}
	c, err := core.NewCluster(core.Options{Workstations: workstations, FileServers: servers, Seed: seed, Params: &params})
	if err != nil {
		return nil, err
	}
	for _, b := range bins {
		if err := c.SeedBinary(b.path, b.size); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Table is one reproduced table or figure, as labeled rows.
type Table struct {
	ID       string
	Title    string
	PaperRef string
	Columns  []string
	Rows     [][]string
	Notes    []string
	// Metrics holds one rendered metrics snapshot per cluster the
	// experiment ran (populated only when Config.Metrics is set).
	Metrics []string
	// Data is the typed rows behind the table, for the drivers that have a
	// machine-readable artifact (E15–E18); nil otherwise. It is not
	// rendered: spritesim -snapshot marshals it, gate tests read it.
	Data any
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a free-text note rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// CaptureMetrics attaches the cluster's metrics snapshot to the table when
// cfg.Metrics is set (a no-op otherwise). The label distinguishes the
// several clusters one experiment may build — sweeps label each point.
func (t *Table) CaptureMetrics(cfg Config, label string, c *core.Cluster) {
	if !cfg.Metrics {
		return
	}
	t.CaptureSnapshot(cfg, label, c.MetricsSnapshot())
}

// CaptureSnapshot is CaptureMetrics for drivers that only hold a snapshot
// (the cluster itself already torn down or owned by another package).
func (t *Table) CaptureSnapshot(cfg Config, label string, snap metrics.Snapshot) {
	if !cfg.Metrics {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "metrics %s [%s]:\n", t.ID, label)
	text := strings.TrimRight(snap.Text(), "\n")
	for _, line := range strings.Split(text, "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	t.Metrics = append(t.Metrics, b.String())
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.PaperRef != "" {
		fmt.Fprintf(&b, "  [paper: %s]\n", t.PaperRef)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(cell) // no trailing padding
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, m := range t.Metrics {
		b.WriteString(m)
	}
	return b.String()
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{ID: "E1", Name: "migration-time breakdown", Run: E1MigrationBreakdown},
		{ID: "E2", Name: "exec-time migration vs local exec", Run: E2RemoteExec},
		{ID: "E3", Name: "VM transfer strategies", Run: E3VMStrategies},
		{ID: "E4", Name: "kernel-call forwarding", Run: E4Forwarding},
		{ID: "E5", Name: "pmake speedup vs hosts", Run: E5PmakeSpeedup},
		{ID: "E6", Name: "effective utilization", Run: E6Utilization},
		{ID: "E7", Name: "host-selection latency", Run: E7SelectionLatency},
		{ID: "E8", Name: "selection architectures", Run: E8SelectionArchitectures},
		{ID: "E9", Name: "eviction cost", Run: E9Eviction},
		{ID: "E10", Name: "idle-host availability", Run: E10IdleFraction},
		{ID: "E11", Name: "placement vs migration", Run: E11PlacementVsMigration},
		{ID: "E12", Name: "syscall handling census", Run: E12SyscallTable},
		{ID: "E13", Name: "remote execution penalty", Run: E13RemotePenalty},
		{ID: "E14", Name: "a day of load sharing", Run: E14DayInTheLife},
		{ID: "E15", Name: "crash recovery and failover", Run: E15CrashRecovery},
		{ID: "E16", Name: "selector shoot-out under churn", Run: E16SelectorShootout},
		{ID: "E17", Name: "parallel kernel wallclock speedup", Run: E17ParallelWallclock},
		{ID: "E18", Name: "fleet economy under eviction storms", Run: E18FleetEconomy},
		{ID: "E19", Name: "design-choice ablations", Run: E19Ablations},
		{ID: "E20", Name: "baselines the thesis argues against", Run: E20Baselines},
	}
}

// Find returns the runner with the given id, or nil.
func Find(id string) *Runner {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			rr := r
			return &rr
		}
	}
	return nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

func secs(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}
