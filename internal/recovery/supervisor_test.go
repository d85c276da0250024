package recovery

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

var jobCfg = core.ProcConfig{Binary: "/bin/job", CodePages: 16, HeapPages: 32, StackPages: 4}

// runDemo runs the canonical demo on its cluster shape: four workstations,
// one file server, /bin/job seeded.
func runDemo(t *testing.T, seed int64) DemoResult {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: 4, FileServers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/job", 128<<10); err != nil {
		t.Fatal(err)
	}
	res, err := RunDemoWith(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunDemo pins down the canonical failover story: three checkpointed
// jobs, one host crash, every job completes, restarted work resumes from
// its checkpoint, and the cluster invariants hold.
func TestRunDemo(t *testing.T) {
	res := runDemo(t, 42)
	if res.Completed != 3 {
		t.Errorf("completed = %d, want 3", res.Completed)
	}
	if len(res.Lost) != 0 {
		t.Errorf("lost jobs: %v", res.Lost)
	}
	if res.Restarts != 3 {
		t.Errorf("restarts = %d, want 3 (every job ran on the crashed host)", res.Restarts)
	}
	if len(res.Violations) != 0 {
		t.Errorf("invariants violated: %v", res.Violations)
	}
	if n := res.Snapshot.Counters["recovery.checkpoints"]; n == 0 {
		t.Error("no checkpoints were taken")
	}
	if n := res.Snapshot.Counters["recovery.cpu_recovered_ns"]; n == 0 {
		t.Error("restarted jobs recovered no checkpointed progress")
	}
	if n := res.Snapshot.Counters["recovery.host_down"]; n != 1 {
		t.Errorf("recovery.host_down = %d, want 1", n)
	}
}

// TestRunDemoDeterministic: same seed, byte-identical outcome — digest,
// event stream, and the full metrics snapshot text.
func TestRunDemoDeterministic(t *testing.T) {
	a, b := runDemo(t, 7), runDemo(t, 7)
	if a.Digest() != b.Digest() {
		t.Fatalf("digest mismatch:\n  %s\n  %s", a.Digest(), b.Digest())
	}
	if a.Snapshot.Text() != b.Snapshot.Text() {
		t.Fatal("metrics snapshots differ between same-seed runs")
	}
}

// acceptanceRun is the issue's acceptance harness: a cluster running
// supervised jobs, with exactly one host (chosen by role) crashing at one
// named migration failpoint, then rebooting shortly after the monitor
// declares it dead. Every job must run to completion and the invariants
// must hold — whichever host died, at whichever point.
func acceptanceRun(t *testing.T, role string, point core.Failpoint) {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: 4, FileServers: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/job", 128<<10); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(c, Params{Interval: 10 * time.Millisecond, FailThreshold: 2})
	sup := NewSupervisor(c, mon, SupervisorParams{
		MaxRestarts:     3,
		CheckpointEvery: 20 * time.Millisecond,
		Dir:             "/ckpt",
	})
	mon.Start()

	// Role → the host that dies. Jobs are homed on workstation 0 and the
	// supervisor's first pick for a target is workstation 1, so "home" kills
	// the source side of the first migration and "target" the destination.
	var victim rpc.HostID
	switch role {
	case "home":
		victim = c.Workstation(0).Host()
	case "target":
		victim = c.Workstation(1).Host()
	case "fs":
		victim = rpc.HostID(1)
	default:
		t.Fatalf("unknown role %q", role)
	}

	// The crash fires exactly once, from a spawned activity so the
	// migrating process is interrupted at (not inside) the failpoint call.
	fired := false
	c.SetFailpoint(func(env *sim.Env, fp core.Failpoint, pid core.PID) error {
		if fp != point || fired {
			return nil
		}
		fired = true
		env.Spawn("crash-at-failpoint", func(e *sim.Env) error {
			c.CrashHost(e, victim)
			return nil
		})
		return nil
	})
	// Reboot 50 ms after the monitor declares the crash (role-agnostic:
	// whenever and whatever died, it comes back under a new epoch).
	mon.Subscribe(func(ev trace.Event) {
		if ev.Kind != trace.HostDown {
			return
		}
		host := rpc.HostID(ev.Host)
		c.Boot("reboot-"+host.String(), func(env *sim.Env) error {
			if err := env.Sleep(50 * time.Millisecond); err != nil {
				return nil
			}
			c.RestartHost(env, host)
			return nil
		})
	})

	c.Boot("driver", func(env *sim.Env) error {
		for i := 0; i < 2; i++ {
			if _, err := sup.Submit(env, fmt.Sprintf("job%d", i), jobCfg, ComputeJob(120*time.Millisecond, 12*time.Millisecond)); err != nil {
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

	if !fired {
		t.Fatalf("failpoint %s never fired — scenario exercised nothing", point)
	}
	if lost := sup.Lost(); len(lost) != 0 {
		t.Errorf("lost jobs: %v", lost)
	}
	for _, j := range sup.jobs {
		if !j.done.Done() {
			t.Errorf("job %s never resolved", j.name)
		}
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
}

// TestCrashAnyHostAtAnyFailpoint is the issue's acceptance matrix: crashing
// the migration source/home, the target, or the file server at every named
// migration failpoint leaves the invariants green and (with the supervisor
// attached) every workload process runs to completion.
func TestCrashAnyHostAtAnyFailpoint(t *testing.T) {
	roles := []string{"home", "target", "fs"}
	points := []core.Failpoint{core.FailMigInit, core.FailMigVM, core.FailMigStreams, core.FailMigPCB}
	for _, role := range roles {
		for _, point := range points {
			role, point := role, point
			t.Run(role+"/"+point.String(), func(t *testing.T) {
				acceptanceRun(t, role, point)
			})
		}
	}
}

// supervisedCrash runs one checkpointed job on a three-workstation cluster
// with hook as the failpoint hook (nil for none), crashing the job's host
// mid-run and restarting it; the job must complete.
func supervisedCrash(t *testing.T, hook core.FailpointFunc) (*core.Cluster, *Handle) {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: 3, FileServers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/job", 64<<10); err != nil {
		t.Fatal(err)
	}
	c.SetFailpoint(hook)
	mon := NewMonitor(c, Params{Interval: 10 * time.Millisecond, FailThreshold: 2})
	sup := NewSupervisor(c, mon, SupervisorParams{MaxRestarts: 3, CheckpointEvery: 10 * time.Millisecond, Dir: "/ckpt"})
	mon.Start()
	victim := c.Workstation(1).Host()

	var h *Handle
	c.Boot("driver", func(env *sim.Env) error {
		var err error
		h, err = sup.Submit(env, "steady", jobCfg, ComputeJob(200*time.Millisecond, 10*time.Millisecond))
		if err != nil {
			return err
		}
		// The initial migration alone takes ~75 ms; crash once the job has
		// computed (and checkpointed) for a while on the victim.
		if err := env.Sleep(150 * time.Millisecond); err != nil {
			return err
		}
		c.CrashHost(env, victim)
		if err := env.Sleep(80 * time.Millisecond); err != nil {
			return err
		}
		c.RestartHost(env, victim)
		if _, err := h.Done().Wait(env); err != nil {
			return err
		}
		mon.Stop()
		sup.Stop()
		return nil
	})
	if err := c.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if h.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", h.Restarts())
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants: %v", v)
	}
	return c, h
}

// TestSupervisorRecoversCheckpointProgress: the restarted incarnation's
// image carries cumulative progress, so total compute across incarnations
// tracks the job size rather than doubling.
func TestSupervisorRecoversCheckpointProgress(t *testing.T) {
	c, h := supervisedCrash(t, nil)
	resumed := time.Duration(h.Resumed().CPUUsedNanos)
	if resumed <= 0 || resumed >= 200*time.Millisecond {
		t.Errorf("resumed progress = %v, want in (0, 200ms)", resumed)
	}
	snap := c.MetricsSnapshot()
	if snap.Counters["recovery.cpu_recovered_ns"] != int64(resumed) {
		t.Errorf("cpu_recovered_ns = %d, want %d", snap.Counters["recovery.cpu_recovered_ns"], resumed)
	}
}

// TestSupervisorRestartFailpoint: failing the recovery.restart failpoint
// once is counted and retried, and the job still completes.
func TestSupervisorRestartFailpoint(t *testing.T) {
	armed := true
	c, _ := supervisedCrash(t, func(env *sim.Env, fp core.Failpoint, pid core.PID) error {
		if armed && fp == core.FailRecoveryRestart {
			armed = false
			return errors.New("injected restart failure")
		}
		return nil
	})
	if n := c.MetricsSnapshot().Counters["recovery.restart.failures"]; n != 1 {
		t.Errorf("recovery.restart.failures = %d, want 1", n)
	}
}

// TestSupervisorGivesUpOnRealFailures: a job that fails on its own (not a
// host crash) is not retried — the supervisor only hides infrastructure
// deaths, never program bugs.
func TestSupervisorGivesUpOnRealFailures(t *testing.T) {
	c, err := core.NewCluster(core.Options{Workstations: 2, FileServers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/job", 64<<10); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(c, DefaultParams())
	sup := NewSupervisor(c, mon, DefaultSupervisorParams())
	mon.Start()

	c.Boot("driver", func(env *sim.Env) error {
		h, err := sup.Submit(env, "buggy", jobCfg, func(ctx *core.Ctx, jc *JobCtx) error {
			if err := ctx.Compute(10 * time.Millisecond); err != nil {
				return err
			}
			return ctx.Exit(9) // deliberate failure
		})
		if err != nil {
			return err
		}
		if _, err := h.Done().Wait(env); err == nil {
			t.Error("buggy job resolved without ErrJobLost")
		}
		if h.Restarts() != 0 {
			t.Errorf("restarts = %d, want 0", h.Restarts())
		}
		mon.Stop()
		return nil
	})
	if err := c.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := sup.Lost(); len(got) != 1 || got[0] != "buggy" {
		t.Fatalf("Lost() = %v, want [buggy]", got)
	}
}
