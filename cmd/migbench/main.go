// Command migbench runs migration micro-benchmarks: one migration with a
// configurable process footprint under each VM transfer strategy, printing
// the per-phase breakdown (negotiate, VM transfer, stream handoff, PCB,
// resume) the thesis tabulates.
//
// Usage:
//
//	migbench -files 4 -dirty-mb 8 [-strategy all|sprite-flush|full-copy|copy-on-reference|pre-copy]
//	migbench -out BENCH_migration.json [-baseline bench/BENCH_migration.json]
//
// -out writes the results as JSON for the benchmark-regression harness
// (see `make bench`). -baseline compares the run against a previously
// saved JSON file and exits non-zero if any strategy's total migration
// time — or any individual phase — regressed by more than -tolerance
// (default 20%). A missing baseline file is not an error: the gate arms
// once a baseline exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"sprite/internal/core"
	spritefs "sprite/internal/fs"
	"sprite/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "migbench:", err)
		os.Exit(1)
	}
}

func strategies(name string) ([]core.TransferStrategy, error) {
	all := []core.TransferStrategy{
		core.SpriteFlushStrategy{},
		core.FullCopyStrategy{},
		core.CopyOnReferenceStrategy{},
		core.PreCopyStrategy{RedirtyPagesPerSec: 50},
	}
	if name == "all" || name == "" {
		return all, nil
	}
	for _, s := range all {
		if s.Name() == name {
			return []core.TransferStrategy{s}, nil
		}
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

// benchResult is one strategy's measured migration, as written to the
// JSON report. Durations are milliseconds of virtual time, so the numbers
// are deterministic for a given seed and safe to diff across machines.
type benchResult struct {
	Strategy    string  `json:"strategy"`
	TotalMS     float64 `json:"total_ms"`
	FreezeMS    float64 `json:"freeze_ms"`
	NegotiateMS float64 `json:"negotiate_ms"`
	VMMS        float64 `json:"vm_ms"`
	StreamsMS   float64 `json:"streams_ms"`
	PCBMS       float64 `json:"pcb_ms"`
	ResumeMS    float64 `json:"resume_ms"`
	TouchbackMS float64 `json:"touchback_ms"`
	VMBytes     int     `json:"vm_bytes"`
	Files       int     `json:"files"`
	Residual    bool    `json:"residual"`

	// Bulk data-plane counters.
	BatchRuns        int `json:"batch_runs,omitempty"`
	BatchFragments   int `json:"batch_fragments,omitempty"`
	BatchRetransmits int `json:"batch_retransmits,omitempty"`
}

// benchReport is the BENCH_migration.json document.
type benchReport struct {
	Name    string        `json:"name"`
	Seed    int64         `json:"seed"`
	Files   int           `json:"files"`
	DirtyMB int           `json:"dirty_mb"`
	Results []benchResult `json:"results"`
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func run(args []string, w io.Writer) error {
	flags := flag.NewFlagSet("migbench", flag.ContinueOnError)
	var (
		files     = flags.Int("files", 4, "open files at migration time")
		dirtyMB   = flags.Int("dirty-mb", 8, "dirty heap megabytes at migration time")
		strategy  = flags.String("strategy", "all", "VM transfer strategy (or 'all')")
		seed      = flags.Int64("seed", 42, "simulation seed")
		out       = flags.String("out", "", "write results as JSON to this file")
		baseline  = flags.String("baseline", "", "compare against this JSON report; missing file disarms the gate")
		tolerance = flags.Float64("tolerance", 0.20, "allowed fractional regression vs baseline, total and per phase")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	sts, err := strategies(*strategy)
	if err != nil {
		return err
	}
	report := benchReport{Name: "migration", Seed: *seed, Files: *files, DirtyMB: *dirtyMB}
	fmt.Fprintf(w, "%-18s %-10s %-10s %-9s %-9s %-9s %-9s %-9s %-9s %-6s %-8s\n",
		"strategy", "total", "freeze", "negotiate", "vm", "streams", "pcb", "resume", "touchback", "frags", "residual")
	for _, s := range sts {
		rec, touchback, err := migrateOnce(*seed, s, *files, *dirtyMB)
		if err != nil {
			return err
		}
		// Phases must tile Total exactly — the span accounting contract
		// holds even though streams overlap the VM transfer.
		if sum := rec.NegotiateTime + rec.VMTime + rec.FileTime + rec.PCBTime + rec.ResumeTime; sum != rec.Total {
			return fmt.Errorf("%s: phases sum to %v, total %v", s.Name(), sum, rec.Total)
		}
		r := 100 * time.Microsecond
		fmt.Fprintf(w, "%-18s %-10s %-10s %-9s %-9s %-9s %-9s %-9s %-9s %-6d %-8v\n",
			s.Name(),
			rec.Total.Round(r), rec.Freeze.Round(r),
			rec.NegotiateTime.Round(r), rec.VMTime.Round(r),
			rec.FileTime.Round(r), rec.PCBTime.Round(r), rec.ResumeTime.Round(r),
			touchback.Round(r),
			rec.BatchFragments, rec.Residual)
		report.Results = append(report.Results, benchResult{
			Strategy:         s.Name(),
			TotalMS:          msf(rec.Total),
			FreezeMS:         msf(rec.Freeze),
			NegotiateMS:      msf(rec.NegotiateTime),
			VMMS:             msf(rec.VMTime),
			StreamsMS:        msf(rec.FileTime),
			PCBMS:            msf(rec.PCBTime),
			ResumeMS:         msf(rec.ResumeTime),
			TouchbackMS:      msf(touchback),
			VMBytes:          rec.VMBytes,
			Files:            rec.Files,
			Residual:         rec.Residual,
			BatchRuns:        rec.BatchRuns,
			BatchFragments:   rec.BatchFragments,
			BatchRetransmits: rec.BatchRetransmits,
		})
	}
	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *out)
	}
	if *baseline != "" {
		if err := checkBaseline(w, report, *baseline, *tolerance, *strategy == "all"); err != nil {
			return err
		}
	}
	return nil
}

// phaseGates lists the per-result fields the regression gate checks
// individually, beyond the total.
var phaseGates = []struct {
	name string
	get  func(benchResult) float64
}{
	{"negotiate", func(r benchResult) float64 { return r.NegotiateMS }},
	{"vm", func(r benchResult) float64 { return r.VMMS }},
	{"streams", func(r benchResult) float64 { return r.StreamsMS }},
	{"pcb", func(r benchResult) float64 { return r.PCBMS }},
	{"resume", func(r benchResult) float64 { return r.ResumeMS }},
}

// phaseGateFloorMS: baseline phases at or below this are too small for a
// meaningful ratio (an overlapped streams phase can legitimately be 0), so
// they are reported but not gated.
const phaseGateFloorMS = 0.5

// checkBaseline compares the fresh report against a saved one and errors on
// any strategy whose total migration time — or any individual phase —
// regressed beyond tolerance. Phases with a near-zero baseline are exempt
// from the ratio gate. When the run measured every strategy (all), a
// baseline row with no counterpart in the run fails the gate too — a renamed
// or dropped strategy must not pass ungated; a run row with no baseline is
// reported as new. A missing baseline file only prints a note: the gate arms
// once someone commits a baseline.
func checkBaseline(w io.Writer, cur benchReport, path string, tolerance float64, all bool) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(w, "no baseline at %s; regression gate disarmed\n", path)
		return nil
	}
	if err != nil {
		return err
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	curBy := make(map[string]benchResult, len(cur.Results))
	for _, r := range cur.Results {
		curBy[r.Strategy] = r
	}
	pct := func(curv, basev float64) float64 { return (curv/basev - 1) * 100 }
	var regressions []string
	for _, b := range base.Results {
		r, ok := curBy[b.Strategy]
		if !ok {
			if all {
				regressions = append(regressions,
					fmt.Sprintf("%s: baseline row has no counterpart in this run", b.Strategy))
			}
			continue
		}
		// Each run row answers one baseline row; a second baseline row
		// under the same key is stale and falls through to the check above.
		delete(curBy, b.Strategy)
		if b.TotalMS <= 0 {
			continue
		}
		ratio := r.TotalMS / b.TotalMS
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: total %.2fms vs baseline %.2fms (%+.1f%%)",
					r.Strategy, r.TotalMS, b.TotalMS, (ratio-1)*100))
		}
		fmt.Fprintf(w, "vs baseline %-26s total %.2fms -> %.2fms (%+.1f%%) %s\n",
			r.Strategy, b.TotalMS, r.TotalMS, (ratio-1)*100, status)
		for _, pg := range phaseGates {
			bv, cv := pg.get(b), pg.get(r)
			switch {
			case bv <= phaseGateFloorMS:
				fmt.Fprintf(w, "    %-9s %8.2fms -> %8.2fms (baseline too small to gate)\n", pg.name, bv, cv)
			case cv > bv*(1+tolerance):
				fmt.Fprintf(w, "    %-9s %8.2fms -> %8.2fms (%+.1f%%) REGRESSION\n", pg.name, bv, cv, pct(cv, bv))
				regressions = append(regressions,
					fmt.Sprintf("%s: phase %s %.2fms vs baseline %.2fms (%+.1f%%)",
						r.Strategy, pg.name, cv, bv, pct(cv, bv)))
			default:
				fmt.Fprintf(w, "    %-9s %8.2fms -> %8.2fms (%+.1f%%) ok\n", pg.name, bv, cv, pct(cv, bv))
			}
		}
	}
	for _, r := range cur.Results {
		if _, unmatched := curBy[r.Strategy]; unmatched {
			fmt.Fprintf(w, "vs baseline %-26s total %.2fms new (ungated)\n", r.Strategy, r.TotalMS)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("migration time regressed >%.0f%%: %v", tolerance*100, regressions)
	}
	return nil
}

func migrateOnce(seed int64, strategy core.TransferStrategy, files, dirtyMB int) (core.MigrationRecord, time.Duration, error) {
	c, err := core.NewCluster(core.Options{Workstations: 2, FileServers: 1, Seed: seed})
	if err != nil {
		return core.MigrationRecord{}, 0, err
	}
	if err := c.SeedBinary("/bin/prog", 128<<10); err != nil {
		return core.MigrationRecord{}, 0, err
	}
	for i := 0; i < files; i++ {
		if err := c.Seed(fmt.Sprintf("/data/f%d", i), []byte("contents")); err != nil {
			return core.MigrationRecord{}, 0, err
		}
	}
	c.SetStrategyAll(strategy)
	pageSize := c.Params().VM.PageSize
	dirtyPages := dirtyMB << 20 / pageSize
	heap := dirtyPages
	if heap < 8 {
		heap = 8
	}
	src, dst := c.Workstation(0), c.Workstation(1)
	var touchback time.Duration
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "subject", func(ctx *core.Ctx) error {
			for i := 0; i < files; i++ {
				if _, err := ctx.Open(fmt.Sprintf("/data/f%d", i), spritefs.ReadMode, spritefs.OpenOptions{}); err != nil {
					return err
				}
			}
			if dirtyPages > 0 {
				if err := ctx.TouchHeap(0, dirtyPages, true); err != nil {
					return err
				}
			}
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			t0 := ctx.Now()
			if dirtyPages > 0 {
				if err := ctx.TouchHeap(0, dirtyPages, false); err != nil {
					return err
				}
			}
			touchback = ctx.Now() - t0
			return nil
		}, core.ProcConfig{Binary: "/bin/prog", CodePages: 8, HeapPages: heap, StackPages: 2})
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	if err := c.Run(0); err != nil {
		return core.MigrationRecord{}, 0, err
	}
	recs := c.MigrationRecords()
	if len(recs) != 1 {
		return core.MigrationRecord{}, 0, fmt.Errorf("expected 1 migration, got %d", len(recs))
	}
	return recs[0], touchback, nil
}
