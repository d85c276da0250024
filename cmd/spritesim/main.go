// Command spritesim runs the reproduced experiments of the Sprite process
// migration thesis and prints their tables.
//
// Usage:
//
//	spritesim -list
//	spritesim -experiment E5 [-seed 42] [-quick] [-metrics]
//	spritesim -experiment E15 [-crash ws1@250ms+200ms] [-snapshot RECOVERY_demo.json]
//	spritesim -experiment E16 [-hosts 10000] [-snapshot HOSTSEL_shootout.json]
//	spritesim -experiment E17 [-hosts 1000]
//	spritesim -experiment E18 [-quick] [-snapshot FLEET_storms.json]
//	spritesim -confined-scale [-hosts 10000] [-snapshot SCALE_confined.json]
//	spritesim -all [-quick] [-parallel] [-workers N]
//
// -metrics appends every cluster's metrics snapshot (RPC traffic, cache
// behaviour, migration phase timings) under the corresponding table.
//
// -snapshot writes the typed rows behind one table (E15–E18 and
// -confined-scale have them) as indented JSON; the printed table is the
// same with or without it.
//
// -crash schedules a host fault in the recovery experiment (E15):
// host@at[+dur] crashes the host at `at` and restarts it `dur` later;
// without +dur the host reboots instantly (state lost, epoch bumped).
// Repeatable.
//
// -hosts overrides the scale-aware experiments' host count: E16 and E18
// run at exactly that fleet size (the 10k CI tier), E17 sizes its confined
// load-daemon fleet, and -confined-scale its workstation ring.
//
// -parallel / -workers run every cluster on the conservative parallel
// kernel, which commits the identical event order — same tables, less
// wallclock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"sprite/internal/experiments"
	"sprite/internal/recovery"
)

// crashFlags collects repeated -crash values.
type crashFlags []recovery.CrashSpec

func (c *crashFlags) String() string {
	s := ""
	for i, sp := range *c {
		if i > 0 {
			s += ","
		}
		s += sp.String()
	}
	return s
}

func (c *crashFlags) Set(v string) error {
	sp, err := recovery.ParseCrashSpec(v)
	if err != nil {
		return err
	}
	*c = append(*c, sp)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		//spritelint:allow simtaint E17's error values may carry measured host wall time; operator diagnostics, not sim state
		fmt.Fprintln(os.Stderr, "spritesim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spritesim", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list available experiments")
		expID     = fs.String("experiment", "", "experiment id to run (see -list)")
		all       = fs.Bool("all", false, "run every experiment")
		seed      = fs.Int64("seed", 42, "simulation seed")
		quick     = fs.Bool("quick", false, "smaller parameter sweeps")
		metrics   = fs.Bool("metrics", false, "append each cluster's metrics snapshot to the tables")
		snapshot  = fs.String("snapshot", "", "write the table's typed rows as JSON to this file (E15, E16, E17, E18, -confined-scale)")
		hosts     = fs.Int("hosts", 0, "override the scale-aware experiments' host count (E16 and E18 fleet size, E17 load daemons, -confined-scale workstations)")
		confScale = fs.Bool("confined-scale", false, "run the confined-hosts scale tier: serial vs parallel migration plane (default 10000 hosts; -hosts overrides)")
		parallel  = fs.Bool("parallel", false, "run every cluster on the conservative parallel kernel (identical results, less wallclock)")
		workers   = fs.Int("workers", 0, "parallel kernel worker count (0 = GOMAXPROCS; implies -parallel)")
	)
	var crashes crashFlags
	fs.Var(&crashes, "crash", "recovery-experiment fault: host@at[+dur], e.g. ws1@250ms+200ms (repeatable; no +dur = instant reboot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel || *workers > 0 {
		// Every cluster any experiment builds honours SPRITE_SIM_PARALLEL
		// (core.NewCluster), so one env var opts the whole run in. The
		// parallel kernel commits the serial event order bit for bit, so
		// outputs are unchanged.
		v := "true"
		if *workers > 0 {
			v = strconv.Itoa(*workers)
		}
		os.Setenv("SPRITE_SIM_PARALLEL", v)
	}
	if *snapshot != "" && *expID == "" && !*confScale {
		return fmt.Errorf("-snapshot writes one table's rows: pass -experiment or -confined-scale")
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick, Metrics: *metrics, Crashes: crashes, Hosts: *hosts}
	// emit prints one table and, under -snapshot, writes its typed rows.
	emit := func(tbl *experiments.Table) error {
		fmt.Fprintln(stdout, tbl)
		if *snapshot == "" {
			return nil
		}
		if tbl.Data == nil {
			return fmt.Errorf("%s has no snapshot data", tbl.ID)
		}
		data, err := json.MarshalIndent(tbl.Data, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*snapshot, data, 0o644)
	}
	switch {
	case *confScale:
		// The tier runs its own serial and parallel legs, so it must not be
		// combined with -parallel (which forces every cluster parallel and
		// would turn the serial baseline into a second parallel run).
		if *parallel || *workers > 0 {
			return fmt.Errorf("-confined-scale runs its own serial and parallel legs; drop -parallel/-workers")
		}
		tbl, err := experiments.E17ConfinedScale(cfg)
		if err != nil {
			return err
		}
		//spritelint:allow simtaint the confined-scale table reports measured host wall time by design (serial vs parallel speedup)
		return emit(tbl)
	case *list:
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", r.ID, r.Name)
		}
		return nil
	case *all:
		for _, r := range experiments.All() {
			tbl, err := r.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", r.ID, err)
			}
			fmt.Fprintln(stdout, tbl)
		}
		return nil
	case *expID != "":
		r := experiments.Find(*expID)
		if r == nil {
			return fmt.Errorf("unknown experiment %q (try -list)", *expID)
		}
		tbl, err := r.Run(cfg)
		if err != nil {
			return err
		}
		return emit(tbl)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -experiment, -all, or -list")
	}
}
