package hostsel

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// TestCentralCrashAndRestart: while migd's host is down, selection fails;
// once its death is reaped migd's soft state is gone, and after restart it
// is repopulated by the hosts' next announcements and selection works
// again — the thesis's argument that a centralized facility needs no
// replication, just restartability. Crashes are not supported under host
// confinement, so the test runs on the unconfined shape only.
func TestCentralCrashAndRestart(t *testing.T) {
	t.Run("unconfined", func(t *testing.T) {
		params := core.DefaultParams()
		c := newCluster(t, &params, 4)
		migd := rpc.HostID(1)
		sel := NewCentral(c, migd, DefaultCentralParams())
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			if err := announceAll(env, c, sel); err != nil {
				return err
			}
			client := c.Workstation(0).Host()
			hosts, err := sel.RequestHosts(env, client, 1)
			if err != nil {
				return err
			}
			if len(hosts) != 1 {
				t.Fatalf("pre-crash grant = %v", hosts)
			}
			if err := sel.Release(env, client, hosts); err != nil {
				return err
			}

			// migd's host crashes.
			epoch := c.HostEpoch(migd)
			c.CrashHost(env, migd)
			if _, err := sel.RequestHosts(env, client, 1); !errors.Is(err, rpc.ErrHostDown) {
				t.Errorf("request during crash err = %v, want ErrHostDown", err)
			}

			// Reap and restart: empty soft state, hosts re-announce, service
			// resumes.
			c.ReapDeadHost(env, migd, epoch)
			c.RestartHost(env, migd)
			got, err := sel.RequestHosts(env, client, 1)
			if err != nil {
				return err
			}
			if len(got) != 0 {
				t.Errorf("freshly restarted migd granted %v before any announcements", got)
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
	})
}

// TestCentralRestartForgetsAssignments documents the soft-state trade-off:
// assignments made before migd's crash are forgotten, so a host can be
// double-granted until its borrower releases and the load daemon reports
// the real load. The load threshold is what bounds the damage. Unconfined
// only, as it crashes a host.
func TestCentralRestartForgetsAssignments(t *testing.T) {
	t.Run("unconfined", func(t *testing.T) {
		params := core.DefaultParams()
		c := newCluster(t, &params, 3)
		migd := rpc.HostID(1)
		sel := NewCentral(c, migd, DefaultCentralParams())
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			if err := announceAll(env, c, sel); err != nil {
				return err
			}
			a, b := c.Workstation(0).Host(), c.Workstation(1).Host()
			got, err := sel.RequestHosts(env, a, 1)
			if err != nil {
				return err
			}
			if len(got) != 1 {
				t.Fatalf("grant = %v", got)
			}
			// Crash, reap and restart lose the assignment.
			epoch := c.HostEpoch(migd)
			c.CrashHost(env, migd)
			c.ReapDeadHost(env, migd, epoch)
			c.RestartHost(env, migd)
			if err := announceAll(env, c, sel); err != nil {
				return err
			}
			again, err := sel.RequestHosts(env, b, 3)
			if err != nil {
				return err
			}
			for _, h := range again {
				if h == got[0] {
					// Documented soft-state behaviour: the double grant is
					// possible until load information catches up.
					return nil
				}
			}
			// Not double-granted this time is also fine (load may have risen).
			return nil
		})
		if err := c.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
	})
}
