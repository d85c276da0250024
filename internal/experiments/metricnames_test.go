package experiments

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"sprite/internal/core"
	"sprite/internal/sim"
	"sprite/internal/workload"
)

// Metric names follow area.noun[.verb]: two or more lowercase
// dot-separated segments, area first, the area one of metricAreas. Goldens
// and the experiment tables key on these strings, and the sorted snapshot
// groups by area. A service name is the service's own (k.migInit), so
// rpc.service.<name> is one opaque segment.
var (
	metricSegment = regexp.MustCompile(`^[a-z][a-z0-9_-]*$`)
	rpcService    = regexp.MustCompile(`^rpc\.service\..+(\.[^.]+)$`)
	metricAreas   = []string{"bgload", "fleet", "fs", "fsserver", "hostsel", "kernel", "mig", "recovery", "rpc", "sim"}
)

// checkMetricName returns what is wrong with one rendered key, if anything.
func checkMetricName(key string) error {
	name := key
	if m := rpcService.FindStringSubmatch(key); m != nil {
		name = "rpc.service" + m[1]
	}
	segs := strings.Split(name, ".")
	if len(segs) < 2 || !slices.Contains(metricAreas, segs[0]) {
		return fmt.Errorf("metric %q: want area.noun[.verb] with an area in %v", key, metricAreas)
	}
	for _, s := range segs {
		if !metricSegment.MatchString(s) {
			return fmt.Errorf("metric %q: segment %q is not lowercase [a-z0-9_-]", key, s)
		}
	}
	return nil
}

// renderedKeys collects the metric names in rendered metrics sections
// (the "counter|gauge|timing <name> ..." lines of Snapshot.Text).
func renderedKeys(sections []string, into map[string]bool) {
	for _, sec := range sections {
		for _, line := range strings.Split(sec, "\n") {
			f := strings.Fields(line)
			if len(f) >= 2 && (f[0] == "counter" || f[0] == "gauge" || f[0] == "timing") {
				into[f[1]] = true
			}
		}
	}
}

// TestRenderedMetricNames checks the names the metrics plane actually
// renders, not the code that builds them, so a name assembled at run time
// (per host, per phase, per service) is held to the rule too. Its keys are
// every quick table's metrics sections plus one directed cluster for the
// families those tables never reach: a failpoint-aborted migration and the
// background-load daemons.
func TestRenderedMetricNames(t *testing.T) {
	keys := make(map[string]bool)
	for _, r := range All() {
		tbl, err := quickTable(r.ID)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		renderedKeys(tbl.Metrics, keys)
	}
	renderedKeys([]string{directedMetrics(t)}, keys)

	areas := make(map[string]bool)
	var aborted, phaseAborted bool
	for key := range keys {
		if err := checkMetricName(key); err != nil {
			t.Error(err)
		}
		areas[strings.Split(key, ".")[0]] = true
		aborted = aborted || strings.HasPrefix(key, "mig.aborted.")
		phaseAborted = phaseAborted || strings.HasPrefix(key, "mig.phase.") && strings.HasSuffix(key, ".aborted")
	}
	for _, a := range metricAreas {
		if !areas[a] {
			t.Errorf("no rendered key in area %q", a)
		}
	}
	if !aborted || !phaseAborted {
		t.Errorf("want mig.aborted.<phase> and mig.phase.<phase>.aborted keys; found %v and %v", aborted, phaseAborted)
	}
}

// directedMetrics runs a small cluster whose one process has its first
// migration aborted at the VM failpoint and its second completed, beside
// two background-load daemons, and returns the rendered snapshot.
func directedMetrics(t *testing.T) string {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/prog", 64<<10); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected vm fault")
	c.SetFailpoint(func(env *sim.Env, fp core.Failpoint, pid core.PID) error {
		if fp == core.FailMigVM && injected != nil {
			err := injected
			injected = nil
			return err
		}
		return nil
	})
	workload.StartBgLoad(c.Sim(), c.Metrics(), workload.BgLoadConfig{Hosts: 2, Ticks: 3, ReportEvery: 1})
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "hop", func(ctx *core.Ctx) error {
			if err := ctx.TouchHeap(0, 4, true); err != nil {
				return err
			}
			if err := ctx.Migrate(dst.Host()); err == nil {
				return errors.New("first migration survived its failpoint")
			}
			return ctx.Migrate(dst.Host())
		}, core.ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 8, StackPages: 1})
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	return c.MetricsSnapshot().Text()
}
