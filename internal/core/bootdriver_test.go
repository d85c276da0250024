package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sprite/internal/sim"
	"sprite/internal/trace"
)

// bootDriverFingerprint runs one exclusive (Boot) driver over a confined
// cluster: it starts a process on every host, asks for a migration of each
// to the next host, kills the last one through Cluster.Kill, and joins every
// exit. Each join hears of a confined process as a message would, one
// lookahead after the fact. The fingerprint folds in the committed order, the
// clock, the trace, what the driver saw and the metrics snapshot.
func bootDriverFingerprint(t *testing.T, simp SimParams) string {
	t.Helper()
	params := DefaultParams()
	params.Sim = simp
	params.Sim.ConfineHosts = true
	const W = 4
	c, err := NewCluster(Options{Workstations: W, FileServers: 1, Seed: 5, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	requireKernel(t, c, simp)
	var events, seen strings.Builder
	c.SetTrace(func(ev trace.Event) {
		fmt.Fprintf(&events, "%v %s %s\n", ev.At, ev.Kind, ev.Detail())
	})
	if err := c.SeedBinary("/bin/prog", 32<<10); err != nil {
		t.Fatal(err)
	}
	ws := c.Workstations()
	c.Boot("driver", func(env *sim.Env) error {
		procs := make([]*Process, W)
		for i, k := range ws {
			p, err := k.StartProcess(env, fmt.Sprintf("p%d", i), func(ctx *Ctx) error {
				if err := ctx.TouchHeap(0, 8, true); err != nil {
					return err
				}
				return ctx.Compute(time.Duration(500+100*i) * time.Millisecond)
			}, smallProc)
			if err != nil {
				return err
			}
			procs[i] = p
		}
		if err := env.Sleep(50 * time.Millisecond); err != nil {
			return err
		}
		moves := make([]*sim.Future, W-1)
		for i, p := range procs[:W-1] {
			moves[i] = ws[i].RequestMigration(p, ws[i+1], "boot driver")
		}
		if err := c.Kill(env, ws[0], procs[W-1].PID()); err != nil {
			return err
		}
		for i, f := range moves {
			v, err := f.Wait(env)
			fmt.Fprintf(&seen, "%v migrated to %v err=%v at %v\n", procs[i].PID(), v, err, env.Now())
		}
		for _, p := range procs {
			v, err := p.Exited().Wait(env)
			fmt.Fprintf(&seen, "%v exited %v err=%v on %v at %v\n", p.PID(), v, err, p.Current().Host(), env.Now())
		}
		return nil
	})
	runCluster(t, c)
	if msgs := c.CheckInvariants(true); len(msgs) > 0 {
		t.Fatalf("invariants violated:\n%s", strings.Join(msgs, "\n"))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digest=%#x now=%v migrations=%d\n", c.Sim().OrderDigest(), c.Sim().Now(), len(c.MigrationRecords()))
	b.WriteString(seen.String())
	b.WriteString(events.String())
	b.WriteString(c.MetricsSnapshot().Text())
	return b.String()
}

// TestBootDriverOnConfinedCluster: a Boot driver needs no BootOn on a
// confined cluster. Its migrations land, its kill takes, every join
// returns, and the serial oracle and the parallel kernel at 1, 2 and 4
// workers produce the same fingerprint.
func TestBootDriverOnConfinedCluster(t *testing.T) {
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	serial := bootDriverFingerprint(t, SimParams{})
	for _, want := range []string{"migrated to host3 err=<nil>", "host5.1 exited -1 err=<nil>", "host4.1 exited 0 err=<nil> on host5"} {
		if !strings.Contains(serial, want) {
			t.Errorf("the driver never saw %q:\n%.1500s", want, serial)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		if par := bootDriverFingerprint(t, SimParams{Parallel: true, Workers: workers}); par != serial {
			t.Fatalf("workers=%d diverged from serial oracle:\n--- parallel ---\n%.2000s\n--- serial ---\n%.2000s", workers, par, serial)
		}
	}
}

// TestConfinedClusterRunsInPhases: a confined cluster serves a second Run
// after its first quiesced, as an unconfined one does. Each phase's driver
// starts a process and joins its exit; a quiesced run leaves no activity
// live, so the first one unwound the RPC dispatchers the second needs.
func TestConfinedClusterRunsInPhases(t *testing.T) {
	params := DefaultParams()
	params.Sim.ConfineHosts = true
	c, err := NewCluster(Options{Workstations: 2, FileServers: 1, Seed: 3, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/prog", 32<<10); err != nil {
		t.Fatal(err)
	}
	k := c.Workstation(0)
	phase := func(name string) func(env *sim.Env) error {
		return func(env *sim.Env) error {
			p, err := k.StartProcess(env, name, func(ctx *Ctx) error {
				return ctx.Compute(10 * time.Millisecond)
			}, smallProc)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		}
	}
	c.BootOn(k.Host(), "first", phase("first"))
	runCluster(t, c)
	c.Boot("second", phase("second"))
	runCluster(t, c)
}
