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
// after restart the soft state is repopulated by the hosts' next
// announcements and selection works again — the thesis's argument that a
// centralized facility needs no replication, just restartability.
func TestCentralCrashAndRestart(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 4)
		sel := NewCentral(c, rpc.HostID(1), DefaultCentralParams())
		migdEP := c.Transport().Endpoint(rpc.HostID(1))
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
			migdEP.SetDown(true)
			if _, err := sel.RequestHosts(env, client, 1); !errors.Is(err, rpc.ErrHostDown) {
				t.Errorf("request during crash err = %v, want ErrHostDown", err)
			}

			// Restart: empty soft state, hosts re-announce, service resumes.
			migdEP.SetDown(false)
			sel.Reset()
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
// assignments made before the crash are forgotten, so a host can be
// double-granted until its borrower releases and the load daemon reports
// the real load. The load threshold is what bounds the damage.
func TestCentralRestartForgetsAssignments(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 3)
		sel := NewCentral(c, rpc.HostID(1), DefaultCentralParams())
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
			sel.Reset() // crash+restart loses the assignment
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
