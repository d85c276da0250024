package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// reader reads numeric cells out of a table for a verdict and collects
// every failed read and failed claim, so one check reports them all.
type reader struct {
	tbl  *Table
	errs []error
}

// fail records a failed claim.
func (r *reader) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Errorf(format, args...))
}

// failIf records a failed claim when bad holds.
func (r *reader) failIf(bad bool, format string, args ...any) {
	if bad {
		r.fail(format, args...)
	}
}

// row returns the index of the first row whose leading cells are prefix,
// or -1 after recording the miss.
func (r *reader) row(prefix ...string) int {
	for i, row := range r.tbl.Rows {
		if len(row) >= len(prefix) && slices.Equal(row[:len(prefix)], prefix) {
			return i
		}
	}
	r.fail("no row with prefix %v", prefix)
	return -1
}

// cell parses cell (row, col), dropping a trailing "x". A missing or
// non-numeric cell is recorded and reads as NaN.
func (r *reader) cell(row, col int) float64 {
	if row < 0 || row >= len(r.tbl.Rows) || col >= len(r.tbl.Rows[row]) {
		r.fail("no cell (%d,%d)", row, col)
		return math.NaN()
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(r.tbl.Rows[row][col], "x"), 64)
	if err != nil {
		r.fail("cell (%d,%d) = %q not numeric", row, col, r.tbl.Rows[row][col])
		return math.NaN()
	}
	return v
}

// at reads column col of the first row whose leading cells are prefix.
func (r *reader) at(col int, prefix ...string) float64 { return r.cell(r.row(prefix...), col) }

// verdict checks tbl's structure (a paper reference, len(Columns) cells in
// every row) and then the claim EXPERIMENTS.md states for its experiment.
// It returns every failure, with the table they were read from.
func verdict(tbl *Table) error {
	r := &reader{tbl: tbl}
	r.failIf(tbl.PaperRef == "", "no paper reference")
	for i, row := range tbl.Rows {
		r.failIf(len(row) != len(tbl.Columns), "row %d has %d cells, want %d", i, len(row), len(tbl.Columns))
	}
	if check := verdicts[tbl.ID]; check == nil {
		r.fail("no verdict")
	} else if len(r.errs) == 0 {
		check(r)
	}
	if len(r.errs) == 0 {
		return nil
	}
	plain := *tbl
	plain.Metrics = nil
	return fmt.Errorf("%s verdict fails:\n%w\n%s", tbl.ID, errors.Join(r.errs...), &plain)
}

// Bounds on the gossip selector's quick-mode shoot-out point at seed 42
// (the configuration E16.golden pins byte for byte). Virtual time makes the
// run deterministic, so the gate is exact — a drift past any bound is a
// real behaviour change, not noise.
const (
	gossipMaxMisplaceRate = 0.15
	gossipMinGranted      = 300
	gossipMaxMeanMs       = 15.0
)

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

// verdicts holds one check per experiment, keyed by runner ID: the shape
// EXPERIMENTS.md's "Verdict:" line claims, read from the table's cells (or,
// for E16 and E18, its typed rows). E17 is wall-clock and checks its own
// digests inside the driver. Every check holds on both the quick and the
// full sweep.
var verdicts = map[string]func(r *reader){
	"E1": func(r *reader) {
		base := r.at(2, "0", "0")
		files := r.at(2, "4", "0")
		vm := r.at(2, "0", "4")
		r.failIf(files <= base, "open files did not increase migration time: base=%v files=%v", base, files)
		r.failIf(vm <= base, "dirty VM did not increase migration time: base=%v vm=%v", base, vm)
		r.failIf(vm <= files, "4MB of dirty VM (%vms) should dominate 4 open files (%vms)", vm, files)
	},
	"E2": func(r *reader) {
		local0 := r.at(2, "local fork+exec", "0")
		remote0 := r.at(2, "remote exec", "0")
		r.failIf(remote0 <= local0, "remote exec (%v) should cost more than local (%v)", remote0, local0)
		// But not wildly more: no VM moves.
		r.failIf(remote0 > local0*6, "remote exec (%v) should be a modest multiple of local (%v)", remote0, local0)
	},
	"E3": func(r *reader) {
		// At 4MB dirty: COR freezes far less than full copy; full copy's
		// resume is free; COR's resume is expensive; pre-copy freeze < full.
		corFreeze := r.at(3, "copy-on-reference", "4")
		fullFreeze := r.at(3, "full-copy", "4")
		preFreeze := r.at(3, "pre-copy", "4")
		r.failIf(corFreeze >= fullFreeze, "COR freeze %v should be << full-copy freeze %v", corFreeze, fullFreeze)
		r.failIf(preFreeze >= fullFreeze, "pre-copy freeze %v should be < full-copy freeze %v", preFreeze, fullFreeze)
		corResume := r.at(4, "copy-on-reference", "4")
		fullResume := r.at(4, "full-copy", "4")
		r.failIf(corResume <= fullResume, "COR resume %v should exceed full-copy resume %v", corResume, fullResume)
		// Sprite's flush grows with dirty size.
		s1 := r.at(2, "sprite-flush", "1")
		s4 := r.at(2, "sprite-flush", "4")
		r.failIf(s4 <= s1, "sprite flush at 4MB (%v) should exceed 1MB (%v)", s4, s1)
	},
	"E4": func(r *reader) {
		// getpid: same home and away.
		home, away := r.at(2, "getpid"), r.at(3, "getpid")
		r.failIf(away > home*1.2, "getpid should be location independent: home=%v away=%v", home, away)
		// gettimeofday: away >> home.
		home, away = r.at(2, "gettimeofday"), r.at(3, "gettimeofday")
		r.failIf(away < home*3, "forwarded gettimeofday should pay an RPC: home=%v away=%v", home, away)
	},
	"E5": func(r *reader) {
		s1 := r.at(2, "1")
		s4 := r.at(2, "4")
		s8 := r.at(2, "8")
		r.failIf(s1 != 1.0, "speedup(1) = %v", s1)
		r.failIf(s4 < 1.8, "speedup(4) = %v, want >= 1.8", s4)
		r.failIf(s8 <= s4, "speedup should still grow at 8 hosts: s4=%v s8=%v", s4, s8)
		// Sub-linear: the sequential link and server contention bite.
		r.failIf(s8 > 6.5, "speedup(8) = %v, want sub-linear", s8)
	},
	"E6": func(r *reader) {
		simU := r.cell(0, 5)
		pmakeU := r.cell(1, 5)
		r.failIf(simU <= pmakeU, "independent simulations (%v%%) should beat pmake (%v%%)", simU, pmakeU)
		r.failIf(simU < 300, "simulations utilization %v%%, want several hundred percent", simU)
	},
	"E7": func(r *reader) {
		mean := r.at(1, "central")
		r.failIf(mean < 10 || mean > 150, "central select+release = %vms, want tens of ms (paper: 56ms)", mean)
	},
	"E8": func(r *reader) {
		// Table 6.2 at every cluster size: central and shared-file are
		// conflict-free, gossip and multicast are not, and gossip buys
		// latency below central's with more messages.
		for _, row := range r.tbl.Rows {
			arch, hosts := row[0], row[1]
			conflicts := r.at(3, arch, hosts)
			switch arch {
			case "central", "shared-file":
				r.failIf(conflicts != 0, "%s at %s hosts: %v conflicts, want 0", arch, hosts, conflicts)
			case "gossip", "multicast":
				r.failIf(conflicts <= 0, "%s at %s hosts: no conflicts, want stale-view conflicts", arch, hosts)
			}
			if arch == "gossip" {
				lat, central := r.at(5, arch, hosts), r.at(5, "central", hosts)
				r.failIf(lat >= central, "gossip latency %vms at %s hosts should be below central's %vms", lat, hosts, central)
				msgs, centralMsgs := r.at(2, arch, hosts), r.at(2, "central", hosts)
				r.failIf(msgs <= centralMsgs, "gossip msgs/min %v at %s hosts should exceed central's %v", msgs, hosts, centralMsgs)
			}
		}
	},
	"E9": func(r *reader) {
		r0, r4 := r.at(1, "0"), r.at(1, "4")
		r.failIf(r4 <= r0, "reclaim with 4MB dirty (%vms) should exceed 0MB (%vms)", r4, r0)
	},
	"E10": func(r *reader) {
		day := r.cell(0, 1)
		night := r.cell(1, 1)
		r.failIf(day < 50 || day > 85, "day idle = %v%%, want in the thesis band (~65-70%%)", day)
		r.failIf(night <= day-30 || night < 60, "night idle = %v%%, want higher than day (~80%%)", night)
	},
	"E11": func(r *reader) {
		none := r.cell(0, 2)
		placement := r.cell(1, 2)
		both := r.cell(2, 2)
		r.failIf(placement >= none, "placement (%vs) should beat no load sharing (%vs)", placement, none)
		r.failIf(both > placement*1.15, "placement+migration (%vs) should not be much worse than placement (%vs)", both, placement)
	},
	"E12": func(r *reader) {
		if len(r.tbl.Rows) != 5 {
			r.fail("rows = %d, want 5 policies", len(r.tbl.Rows))
			return
		}
		for _, row := range r.tbl.Rows {
			r.failIf(r.at(1, row[0]) < 1, "policy %s has no calls", row[0])
		}
	},
	"E13": func(r *reader) {
		compute := r.at(3, "compute-bound")
		io := r.at(3, "file I/O heavy")
		home := r.at(3, "home-call heavy")
		r.failIf(compute > 1, "compute-bound slowdown = %v%%, want ~0", compute)
		r.failIf(io > 2, "file-I/O slowdown = %v%%, want ~0 (FS is location transparent)", io)
		r.failIf(home < 5, "home-call slowdown = %v%%, want noticeable", home)
	},
	"E14": func(r *reader) {
		remote := r.at(1, "remote share of batch CPU (%)")
		r.failIf(remote < 50, "remote CPU share = %v%%, want most of the batch off the submit host", remote)
		migs := r.at(1, "total migrations")
		r.failIf(migs < 5, "migrations = %v, want a working load-sharing day", migs)
	},
	"E15": func(r *reader) {
		// Failover loses no job, and detection comes before the restart.
		lost := r.at(1, "jobs lost")
		r.failIf(lost != 0, "%v jobs lost, want 0", lost)
		done, submitted := r.at(1, "jobs completed"), r.at(1, "jobs submitted")
		r.failIf(done != submitted, "%v of %v jobs completed", done, submitted)
		restarts := r.at(1, "restarts")
		r.failIf(restarts < 1, "%v restarts, want the crash to force at least one", restarts)
		detect, restart := r.at(1, "detect latency p50 (ms)"), r.at(1, "restart latency p50 (ms)")
		r.failIf(detect > restart, "detect p50 %vms exceeds restart p50 %vms", detect, restart)
	},
	"E16": func(r *reader) {
		// Misplacement stays under the ceiling (bounded stale views
		// recovering via claim verification), enough requests are granted
		// (the selector keeps working through churn), and mean selection
		// latency stays local-read cheap.
		rows, _ := r.tbl.Data.([]*e16Row)
		var gossip *e16Row
		for _, row := range rows {
			if row.Architecture == "gossip" {
				gossip = row
			}
		}
		if gossip == nil {
			r.fail("no gossip row in shoot-out snapshot")
			return
		}
		r.failIf(gossip.MisplaceRate > gossipMaxMisplaceRate,
			"gossip misplace rate %.4f exceeds ceiling %.4f", gossip.MisplaceRate, gossipMaxMisplaceRate)
		r.failIf(gossip.Granted < gossipMinGranted, "gossip granted %d below floor %d", gossip.Granted, gossipMinGranted)
		r.failIf(gossip.MeanMs > gossipMaxMeanMs,
			"gossip mean selection %.2fms exceeds ceiling %.2fms", gossip.MeanMs, gossipMaxMeanMs)
	},
	"E18": func(r *reader) {
		// No storm intensity may lose a job or dent goodput (every host
		// comes back, so lost work is a control-plane bug), drains must
		// complete within the ceiling, and job latency must stay inside the
		// ceiling even under the hurricane schedule.
		rows, _ := r.tbl.Data.([]*e18Row)
		if len(rows) == 0 {
			r.fail("no rows in fleet economy snapshot")
			return
		}
		var hurricane *e18Row
		for _, row := range rows {
			if row.Intensity == "hurricane" {
				hurricane = row
			}
			r.failIf(row.Goodput < fleetMinGoodput,
				"%s: goodput %.2f below floor %.2f", row.Intensity, row.Goodput, fleetMinGoodput)
			r.failIf(row.JobsLost > fleetMaxJobsLost,
				"%s: %d jobs lost, gate allows %d", row.Intensity, row.JobsLost, fleetMaxJobsLost)
			r.failIf(row.DrainsCompleted != row.DrainsStarted,
				"%s: %d of %d drains completed — a drain stalled past the horizon", row.Intensity, row.DrainsCompleted, row.DrainsStarted)
			r.failIf(row.DrainMeanMs > fleetMaxDrainMeanMs,
				"%s: drain mean %.1fms exceeds ceiling %.1fms", row.Intensity, row.DrainMeanMs, fleetMaxDrainMeanMs)
			r.failIf(row.MeanJobMs > fleetMaxMeanJobMs,
				"%s: mean job latency %.1fms exceeds ceiling %.1fms", row.Intensity, row.MeanJobMs, fleetMaxMeanJobMs)
		}
		if hurricane == nil {
			r.fail("no hurricane row in fleet economy snapshot")
			return
		}
		// The hurricane drains must actually move work — a sweep where
		// every drained host happened to be empty gates nothing.
		r.failIf(hurricane.Migrated+hurricane.Evacuated == 0,
			"hurricane drains moved no residents: the storm no longer intersects placements")
	},
	"E19": func(r *reader) {
		// Each row group lists its arms in the order the value must
		// strictly rise, so a design choice whose arms read the same fails
		// here instead of being printed.
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
				v := r.at(3, g.choice, g.measure, arm)
				r.failIf(v <= prev, "%s: %s at %q = %v, want above %v", g.choice, g.measure, arm, v, prev)
				prev = v
			}
		}
	},
	"E20": func(r *reader) {
		i := r.row("moving a running job")
		mig, ckpt := r.cell(i, 3), r.cell(i+1, 3)
		r.failIf(ckpt < 3*mig, "checkpoint/restart (%vms) should cost several times a migration (%vms)", ckpt, mig)
		i = r.row("remote transparency")
		selective, all := r.cell(i, 3), r.cell(i+1, 3)
		r.failIf(all < 5*selective, "forwarding every call (%vms) should cost many times selective forwarding (%vms)", all, selective)
	},
}
