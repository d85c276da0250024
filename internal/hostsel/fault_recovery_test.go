// External test package: internal/fault imports internal/hostsel (the
// fuzzer drives the gossip selector), so tests that use the fault plane must
// live outside package hostsel to avoid an import cycle.
package hostsel_test

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/fault"
	"sprite/internal/hostsel"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// newCluster builds a cluster where every workstation has been quiet long
// enough to count as idle.
func newCluster(t *testing.T, workstations int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: workstations, FileServers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// warmup advances past the idle-input age so quiet hosts are available.
func warmup(env *sim.Env) error { return env.Sleep(time.Minute) }

// announceAll pushes every workstation's availability into the selector.
func announceAll(env *sim.Env, c *core.Cluster, sel hostsel.Selector) error {
	for _, k := range c.Workstations() {
		if err := sel.NotifyAvailability(env, k.Host(), k.Available(env.Now())); err != nil {
			return err
		}
	}
	return nil
}

// TestCentralUnderFaultPlane drives the migd crash/restart scenario through
// the fault plane instead of poking endpoints directly: first a lossy
// message window that the RPC retry layer must absorb (selection still
// succeeds), then a fail-stop of migd's host (selection fails with
// ErrHostDown), then restart plus re-announcement (service resumes with
// empty soft state). This is the same restartability argument as
// TestCentralCrashAndRestart, but exercised end to end through the
// injection hooks the fuzzer uses.
func TestCentralUnderFaultPlane(t *testing.T) {
	c := newCluster(t, 4)
	migd := rpc.HostID(1)
	sel := hostsel.NewCentral(c, migd, hostsel.DefaultCentralParams())
	plane := fault.NewPlane(c, 42)
	defer plane.Detach()
	c.Boot("boot", func(env *sim.Env) error {
		if err := warmup(env); err != nil {
			return err
		}
		if err := announceAll(env, c, sel); err != nil {
			return err
		}
		client := c.Workstation(0).Host()

		// Lossy window around migd: a third of the messages touching its
		// host vanish, and the retry/backoff layer has to carry selection
		// through anyway.
		plane.DropMessages(env.Now(), env.Now()+2*time.Second, 0.33, migd)
		hosts, err := sel.RequestHosts(env, client, 1)
		if err != nil {
			return err
		}
		if len(hosts) != 1 {
			t.Fatalf("grant under message loss = %v, want 1 host", hosts)
		}
		if err := sel.Release(env, client, hosts); err != nil {
			return err
		}
		if err := env.Sleep(2 * time.Second); err != nil { // window closes
			return err
		}
		if plane.Injected() == 0 {
			t.Error("drop window injected nothing; fault plane not exercised")
		}

		// migd's host fail-stops.
		epoch := c.HostEpoch(migd)
		c.CrashHost(env, migd)
		if _, err := sel.RequestHosts(env, client, 1); !errors.Is(err, rpc.ErrHostDown) {
			t.Errorf("request during crash err = %v, want ErrHostDown", err)
		}

		// Reap and restart: soft state is gone until hosts re-announce.
		c.ReapDeadHost(env, migd, epoch)
		c.RestartHost(env, migd)
		got, err := sel.RequestHosts(env, client, 1)
		if err != nil {
			return err
		}
		if len(got) != 0 {
			t.Errorf("restarted migd granted %v before any announcements", got)
		}
		if err := announceAll(env, c, sel); err != nil {
			return err
		}
		got, err = sel.RequestHosts(env, client, 2)
		if err != nil {
			return err
		}
		if len(got) != 2 {
			t.Errorf("post-restart grant = %v, want 2 hosts", got)
		}
		return sel.Release(env, client, got)
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
}
