// External test package: internal/fault imports internal/recovery (the
// fleet fuzzer drives the monitor and supervisor), so tests that use the
// fault plane must sit outside the package to avoid an import cycle.
package recovery_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/fault"
	"sprite/internal/recovery"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

func newCluster(t *testing.T, ws int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: ws, FileServers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// driver boots fn and a joiner that stops the monitor once fn's future
// resolves, then runs the cluster to completion.
func runWithMonitor(t *testing.T, c *core.Cluster, mon *recovery.Monitor, fn func(env *sim.Env) error) {
	t.Helper()
	done := sim.NewFuture()
	c.Boot("test-driver", func(env *sim.Env) error {
		err := fn(env)
		mon.Stop()
		done.Complete(env, nil, err)
		return err
	})
	if err := c.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !done.Done() {
		t.Fatal("test driver never finished")
	}
}

// TestMonitorDetectsCrash: a crashed host is declared down (with the right
// epoch) within a few heartbeat intervals, and declared up again after the
// restart.
func TestMonitorDetectsCrash(t *testing.T) {
	c := newCluster(t, 3)
	mon := recovery.NewMonitor(c, recovery.Params{Interval: 10 * time.Millisecond, FailThreshold: 2})
	var events, traced []trace.Event
	mon.Subscribe(func(ev trace.Event) { events = append(events, ev) })
	c.SetTrace(func(ev trace.Event) {
		if ev.Kind == trace.HostDown || ev.Kind == trace.HostUp {
			traced = append(traced, ev)
		}
	})
	mon.Start()
	victim := c.Workstation(1).Host()

	runWithMonitor(t, c, mon, func(env *sim.Env) error {
		if err := env.Sleep(50 * time.Millisecond); err != nil {
			return err
		}
		c.CrashHost(env, victim)
		// Give the detector a few intervals: threshold 2 at 10 ms cadence.
		if err := env.Sleep(100 * time.Millisecond); err != nil {
			return err
		}
		if got := mon.DeclaredDown(victim); got != 1 {
			t.Errorf("DeclaredDown(%v) = %d, want 1", victim, got)
		}
		c.RestartHost(env, victim)
		return env.Sleep(100 * time.Millisecond)
	})

	if len(events) != 2 {
		t.Fatalf("events = %v, want [down, up]", events)
	}
	if events[0].Kind != trace.HostDown || rpc.HostID(events[0].Host) != victim || events[0].Epoch != 1 {
		t.Errorf("first event = %+v, want HostDown %v epoch 1", events[0], victim)
	}
	if events[1].Kind != trace.HostUp || events[1].Epoch != 2 {
		t.Errorf("second event = %+v, want HostUp epoch 2", events[1])
	}
	if !slices.Equal(traced, events) {
		t.Errorf("traced liveness events = %v, subscribers saw %v", traced, events)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants: %v", v)
	}
}

// TestMonitorDetectsInstantReboot: a host that crashes and comes back
// between two heartbeats is still caught — the ping reply carries the new
// boot epoch, which proves the old incarnation died (Sprite's reboot
// detection via boot timestamps).
func TestMonitorDetectsInstantReboot(t *testing.T) {
	c := newCluster(t, 3)
	mon := recovery.NewMonitor(c, recovery.Params{Interval: 10 * time.Millisecond, FailThreshold: 3})
	var events []trace.Event
	mon.Subscribe(func(ev trace.Event) { events = append(events, ev) })
	mon.Start()
	victim := c.Workstation(2).Host()

	runWithMonitor(t, c, mon, func(env *sim.Env) error {
		if err := env.Sleep(45 * time.Millisecond); err != nil {
			return err
		}
		c.Reboot(env, victim) // down for zero virtual time
		return env.Sleep(100 * time.Millisecond)
	})

	if len(events) != 2 || events[0].Kind != trace.HostDown || events[0].Epoch != 1 ||
		events[1].Kind != trace.HostUp || events[1].Epoch != 2 {
		t.Fatalf("events = %+v, want HostDown e1 then HostUp e2", events)
	}
	if got := c.ReapedEpoch(victim); got != 1 {
		t.Errorf("ReapedEpoch = %d, want 1 (monitor reaps what it declares)", got)
	}
}

// TestMonitorIgnoresMessageLoss: a drop window that starves every ping must
// not get a live host declared dead — suspicion requires the channel to be
// really down, so a lossy network yields ping.failures but no HostDown.
func TestMonitorIgnoresMessageLoss(t *testing.T) {
	c := newCluster(t, 3)
	plane := fault.NewPlane(c, 7)
	victim := c.Workstation(1).Host()
	plane.DropMessages(0, 300*time.Millisecond, 1.0, victim)

	mon := recovery.NewMonitor(c, recovery.Params{Interval: 10 * time.Millisecond, FailThreshold: 2})
	var events []trace.Event
	mon.Subscribe(func(ev trace.Event) { events = append(events, ev) })
	mon.Start()

	runWithMonitor(t, c, mon, func(env *sim.Env) error {
		return env.Sleep(250 * time.Millisecond)
	})

	if len(events) != 0 {
		t.Fatalf("events = %+v, want none (host never crashed)", events)
	}
	if mon.DeclaredDown(victim) != 0 {
		t.Fatal("live host declared down under message loss")
	}
	snap := c.MetricsSnapshot()
	if snap.Counters["recovery.ping.failures"] == 0 {
		t.Fatal("drop window did not starve any pings — test exercised nothing")
	}
}

// TestMonitorPingFailpoint: failing the recovery.ping failpoint for a
// window on a healthy cluster fails probes, and failed probes alone never
// declare a live host down.
func TestMonitorPingFailpoint(t *testing.T) {
	c := newCluster(t, 3)
	c.SetFailpoint(func(env *sim.Env, fp core.Failpoint, pid core.PID) error {
		if fp == core.FailRecoveryPing && env.Now() >= 50*time.Millisecond && env.Now() < 150*time.Millisecond {
			return errors.New("injected ping failure")
		}
		return nil
	})
	mon := recovery.NewMonitor(c, recovery.Params{Interval: 10 * time.Millisecond, FailThreshold: 2})
	mon.Start()

	runWithMonitor(t, c, mon, func(env *sim.Env) error {
		return env.Sleep(250 * time.Millisecond)
	})

	snap := c.MetricsSnapshot()
	if snap.Counters["recovery.ping.failures"] == 0 {
		t.Fatal("recovery.ping.failures = 0: the failpoint failed no probe")
	}
	if n := snap.Counters["recovery.host_down"]; n != 0 {
		t.Fatalf("recovery.host_down = %d, want 0 (no host crashed)", n)
	}
}

// TestMonitorSurvivesVantageCrash: detection keeps working when the default
// vantage host (the file server, host 1) is itself the crashed one — pings
// re-route through the next live peer.
func TestMonitorSurvivesVantageCrash(t *testing.T) {
	c := newCluster(t, 3)
	mon := recovery.NewMonitor(c, recovery.Params{Interval: 10 * time.Millisecond, FailThreshold: 2})
	var events []trace.Event
	mon.Subscribe(func(ev trace.Event) { events = append(events, ev) })
	mon.Start()
	server := rpc.HostID(1)

	runWithMonitor(t, c, mon, func(env *sim.Env) error {
		if err := env.Sleep(50 * time.Millisecond); err != nil {
			return err
		}
		c.CrashHost(env, server)
		if err := env.Sleep(100 * time.Millisecond); err != nil {
			return err
		}
		if got := mon.DeclaredDown(server); got != 1 {
			t.Errorf("DeclaredDown(fs server) = %d, want 1", got)
		}
		c.RestartHost(env, server)
		return env.Sleep(100 * time.Millisecond)
	})

	if len(events) != 2 || events[0].Kind != trace.HostDown || events[1].Kind != trace.HostUp {
		t.Fatalf("events = %+v, want fs-server down then up", events)
	}
}
