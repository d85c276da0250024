// External test package: internal/fault imports internal/recovery (the
// fleet fuzzer drives the monitor and supervisor), so tests that use the
// fault plane must sit outside the package to avoid an import cycle.
package recovery_test

import (
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/fault"
	"sprite/internal/recovery"
	"sprite/internal/sim"
)

// stormRun drives one crash storm: a cluster under a monitor and
// supervisor, three checkpointed jobs, and a staggered schedule of
// crash+restart and instant-reboot faults across every host the jobs can
// land on. The home workstation stays up so "no job may be lost" is an
// unconditional assertion. The recovery counters go to the test log.
func stormRun(t *testing.T, strategy core.TransferStrategy) {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: 4, FileServers: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	c.SetStrategyAll(strategy)
	if err := c.SeedBinary("/bin/job", 128<<10); err != nil {
		t.Fatal(err)
	}

	mon := recovery.NewMonitor(c, recovery.Params{Interval: 10 * time.Millisecond, FailThreshold: 2})
	sup := recovery.NewSupervisor(c, mon, recovery.SupervisorParams{
		MaxRestarts:     6,
		CheckpointEvery: 15 * time.Millisecond,
		Dir:             "/ckpt",
	})
	mon.Start()

	// The storm: every non-home workstation dies once. Workstation 1 (the
	// supervisor's first target pick) crashes after the jobs have checkpointed
	// there and stays down long enough for timeout detection; workstation 2 —
	// where the restarted jobs land — reboots instantly under their feet
	// (epoch-only detection, second kill); workstation 3 crashes while those
	// second recoveries are still in flight.
	plane := fault.NewPlane(c, 17)
	plane.ScheduleCrash(c.Workstation(1).Host(), 280*time.Millisecond, 250*time.Millisecond)
	plane.ScheduleReboot(c.Workstation(2).Host(), 430*time.Millisecond)
	plane.ScheduleCrash(c.Workstation(3).Host(), 500*time.Millisecond, 150*time.Millisecond)

	cfg := core.ProcConfig{Binary: "/bin/job", CodePages: 16, HeapPages: 32, StackPages: 4}
	c.Boot("storm-driver", func(env *sim.Env) error {
		for _, name := range []string{"stormA", "stormB", "stormC"} {
			if _, err := sup.Submit(env, name, cfg, recovery.ComputeJob(200*time.Millisecond, 20*time.Millisecond)); err != nil {
				return err
			}
		}
		if err := sup.Wait(env); err != nil {
			return err
		}
		mon.Stop()
		sup.Stop()
		return nil
	})
	if err := c.Run(time.Minute); err != nil {
		t.Fatal(err)
	}

	if lost := sup.Lost(); len(lost) != 0 {
		t.Errorf("lost jobs: %v", lost)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
	snap := c.MetricsSnapshot()
	if snap.Counters["recovery.host_down"] == 0 {
		t.Error("storm produced no detected crashes — schedule is not exercising recovery")
	}
	if snap.Counters["recovery.cpu_recovered_ns"] == 0 {
		t.Error("no checkpointed progress was recovered — restarts all began from scratch")
	}
	cnt := snap.Counters
	t.Logf("host_down=%d host_up=%d restarts=%d checkpoints=%d cpu_recovered_ns=%d jobs_completed=%d",
		cnt["recovery.host_down"], cnt["recovery.host_up"], cnt["recovery.restarts"],
		cnt["recovery.checkpoints"], cnt["recovery.cpu_recovered_ns"], cnt["recovery.jobs.completed"])
}

// TestCrashStorm is the chaos suite: the full crash storm under every
// migration strategy.
func TestCrashStorm(t *testing.T) {
	strategies := []core.TransferStrategy{
		core.SpriteFlushStrategy{},
		core.FullCopyStrategy{},
		core.CopyOnReferenceStrategy{},
		core.PreCopyStrategy{RedirtyPagesPerSec: 100},
	}
	for _, s := range strategies {
		t.Run(s.Name()+"/batched", func(t *testing.T) { stormRun(t, s) })
	}
}
