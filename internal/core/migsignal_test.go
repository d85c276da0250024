package core

import (
	"testing"
	"time"

	"sprite/internal/sim"
)

// These tests race signal delivery against an in-flight migration: the
// FailMigPCB failpoint holds the PCB between hosts while a signal is routed
// through the victim's home machine. Whatever host the signal lands on, it
// must take effect exactly once — one exit in the ledger for SIGKILL, one
// suspension (resumable by SIGCONT) for SIGSTOP.

// transitHarness starts a process on home that migrates to target, holding
// the PCB transfer at FailMigPCB until hold elapses. inTransit completes the
// moment the transfer begins to hang, so the boot activity can race a
// signal against it.
func transitHarness(c *Cluster, victim *PID, hold time.Duration) *sim.Future {
	inTransit := sim.NewFuture()
	c.SetFailpoint(func(env *sim.Env, fp Failpoint, pid PID) error {
		if fp != FailMigPCB || pid != *victim {
			return nil
		}
		inTransit.Complete(env, nil, nil)
		return env.Sleep(hold)
	})
	return inTransit
}

func TestSigKillRacesInFlightMigration(t *testing.T) {
	c := newCluster(t, 3)
	home, target, other := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	var victim PID
	inTransit := transitHarness(c, &victim, 20*time.Millisecond)
	var status any
	c.Boot("boot", func(env *sim.Env) error {
		p, err := home.StartProcess(env, "victim", func(ctx *Ctx) error {
			if err := ctx.TouchHeap(0, 8, true); err != nil {
				return err
			}
			if err := ctx.Migrate(target.Host()); err != nil {
				return err
			}
			return ctx.Compute(10 * time.Second)
		}, smallProc)
		if err != nil {
			return err
		}
		victim = p.PID()
		if _, err := inTransit.Wait(env); err != nil {
			return err
		}
		// The PCB is between hosts right now: kill, routed via home.
		if err := c.signalPID(env, other, victim, SigKill); err != nil {
			return err
		}
		status, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if status != -1 {
		t.Fatalf("exit status = %v, want -1 (killed)", status)
	}
	var exited uint64
	for _, k := range []*Kernel{home, target, other} {
		exited += k.Stats().ProcsExited
	}
	if exited != 1 {
		t.Errorf("exits recorded = %d, want exactly 1", exited)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
}

func TestSigStopRacesInFlightMigration(t *testing.T) {
	c := newCluster(t, 3)
	home, target, other := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	var victim PID
	inTransit := transitHarness(c, &victim, 20*time.Millisecond)
	finished := false
	c.Boot("boot", func(env *sim.Env) error {
		p, err := home.StartProcess(env, "sleeper", func(ctx *Ctx) error {
			if err := ctx.TouchHeap(0, 8, true); err != nil {
				return err
			}
			if err := ctx.Migrate(target.Host()); err != nil {
				return err
			}
			if err := ctx.Compute(50 * time.Millisecond); err != nil {
				return err
			}
			finished = true
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		victim = p.PID()
		if _, err := inTransit.Wait(env); err != nil {
			return err
		}
		// Stop the process while its PCB is between hosts.
		if err := c.signalPID(env, other, victim, SigStop); err != nil {
			return err
		}
		// Once the migration completes, the stop takes effect at the next
		// kernel call — on the TARGET, where the process now lives.
		if err := env.Sleep(100 * time.Millisecond); err != nil {
			return err
		}
		if !p.Stopped() {
			t.Error("process not stopped after SIGSTOP raced the migration")
		}
		if p.Current() != target {
			t.Errorf("stopped on %v, want target %v", p.Current().Host(), target.Host())
		}
		if finished {
			t.Error("process ran to completion while supposedly stopped")
		}
		if err := c.signalPID(env, other, victim, SigCont); err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if !finished {
		t.Error("process never resumed after SIGCONT")
	}
	var exited uint64
	for _, k := range []*Kernel{home, target, other} {
		exited += k.Stats().ProcsExited
	}
	if exited != 1 {
		t.Errorf("exits recorded = %d, want exactly 1", exited)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
}
