// Regression test for the dead-claimant scrub: a leased claim must be
// released not only when the claimed host reboots (the epoch guard) but
// also when the CLAIMING host dies mid-claim — its memory, and with it the
// intent to release, is gone. Before the scrub this leak was visible only
// to the end-of-run ledger audit.
package hostsel_test

import (
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/hostsel"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

func TestReapDeadClaimantReleasesClaim(t *testing.T) {
	c, err := core.NewCluster(core.Options{Workstations: 3, FileServers: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	params := hostsel.DefaultProbabilisticParams()
	params.Fanout = 8
	params.ClaimLease = 0 // no lease: only the scrub can release the claim
	sel := hostsel.NewProbabilistic(c, params)
	ledger := hostsel.NewClaimLedger(sel, c, params.ClaimLease)
	ledger.Register(c)
	a := c.Workstation(0).Host()
	target := c.Workstation(1).Host()
	b := c.Workstation(2).Host()
	c.Boot("boot", func(env *sim.Env) error {
		if err := env.Sleep(time.Minute); err != nil {
			return err
		}
		if err := sel.NotifyAvailability(env, target, true); err != nil {
			return err
		}
		got, err := ledger.RequestHosts(env, a, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("A's claim: got %v, want [%v]", got, target)
		}

		// A dies holding the claim. The target is fine — only the claimant
		// is gone, so the epoch guard on the *owner's* incarnation never
		// fires and, with no lease, the claim would leak forever.
		aEpoch := c.HostEpoch(a)
		c.CrashHost(env, a)
		if oc := sel.OutstandingClaims(env.Now()); oc[target] != a {
			t.Fatalf("pre-reap claims %v, want %v still held by dead %v", oc, target, a)
		}

		// Detection: the death is reaped cluster-wide; the reap hook scrubs
		// every claim held by A's dead incarnation.
		c.ReapDeadHost(env, a, aEpoch)
		if oc := sel.OutstandingClaims(env.Now()); len(oc) != 0 {
			t.Fatalf("post-reap claims %v, want none", oc)
		}

		// The freed host is immediately grantable to B.
		if err := env.Sleep(time.Minute); err != nil {
			return err
		}
		if err := sel.NotifyAvailability(env, target, true); err != nil {
			return err
		}
		got, err = ledger.RequestHosts(env, b, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("B's claim after reap: got %v, want [%v]", got, target)
		}

		// A restarts, crashes again, and restarts once more before that
		// second death is reaped. The claim its newest incarnation takes
		// must survive the late reap of the older one.
		if err := ledger.Release(env, b, got); err != nil {
			return err
		}
		c.RestartHost(env, a)
		aEpoch = c.HostEpoch(a)
		c.CrashHost(env, a)
		c.RestartHost(env, a)
		if err := env.Sleep(time.Minute); err != nil {
			return err
		}
		if err := sel.NotifyAvailability(env, target, true); err != nil {
			return err
		}
		got, err = ledger.RequestHosts(env, a, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("A's reclaim after restart: got %v, want [%v]", got, target)
		}
		c.ReapDeadHost(env, a, aEpoch)
		if oc := sel.OutstandingClaims(env.Now()); oc[target] != a {
			t.Fatalf("claims after the older incarnation's reap %v, want %v held by %v", oc, target, a)
		}
		ledger.Release(env, a, got)
		c.Stop()
		return nil
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if msgs := c.CheckInvariants(true); len(msgs) != 0 {
		t.Fatalf("invariants: %v", msgs)
	}
}

// TestMulticastReapFreesDeadClaimantsClaim: a multicast claim lives only at
// its owner, so when the claimant dies holding it nothing but the reap hook
// can free it. Before the hook, B's request ten minutes after A's death
// found no responder: the claimed host stayed silent forever.
func TestMulticastReapFreesDeadClaimantsClaim(t *testing.T) {
	c, err := core.NewCluster(core.Options{Workstations: 3, FileServers: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sel := hostsel.NewMulticast(c)
	a := c.Workstation(0).Host()
	target := c.Workstation(1).Host()
	b := c.Workstation(2).Host()
	c.Boot("boot", func(env *sim.Env) error {
		if err := env.Sleep(time.Minute); err != nil {
			return err
		}
		// Equally idle responders are taken in host order: A gets the target.
		got, err := sel.RequestHosts(env, a, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("A's claim: got %v, want [%v]", got, target)
		}
		aEpoch := c.HostEpoch(a)
		c.CrashHost(env, a)
		c.ReapDeadHost(env, a, aEpoch)
		if err := env.Sleep(10 * time.Minute); err != nil {
			return err
		}
		got, err = sel.RequestHosts(env, b, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("B's claim after A's reap: got %v, want [%v]", got, target)
		}
		if err := sel.Release(env, b, got); err != nil {
			return err
		}

		// A restarts, crashes again, and restarts once more before that
		// second death is reaped. Its newest incarnation takes the target;
		// the late reap of the older incarnation must leave that claim alone.
		c.RestartHost(env, a)
		aEpoch = c.HostEpoch(a)
		c.CrashHost(env, a)
		c.RestartHost(env, a)
		if err := env.Sleep(time.Minute); err != nil {
			return err
		}
		if got, err = sel.RequestHosts(env, a, 1); err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("A's reclaim after restart: got %v, want [%v]", got, target)
		}
		c.ReapDeadHost(env, a, aEpoch)
		if got, err = sel.RequestHosts(env, b, 2); err != nil {
			return err
		}
		for _, h := range got {
			if h == target {
				t.Fatalf("B got %v while A's new incarnation holds %v", got, target)
			}
		}
		c.Stop()
		return nil
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestCentralReapFreesDeadClientsGrant replays the multicast schedule above
// against migd: a grant recorded at the server outlives its holder unless
// the reap frees it. Before the hook, B's request ten minutes after A's
// death returned no host: the target stayed lent to the dead A forever.
func TestCentralReapFreesDeadClientsGrant(t *testing.T) {
	c, err := core.NewCluster(core.Options{Workstations: 3, FileServers: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sel := hostsel.NewCentral(c, rpc.HostID(1), hostsel.DefaultCentralParams()) // migd on the file server
	a := c.Workstation(0).Host()
	target := c.Workstation(1).Host()
	b := c.Workstation(2).Host()
	c.Boot("boot", func(env *sim.Env) error {
		if err := env.Sleep(time.Minute); err != nil {
			return err
		}
		if err := sel.NotifyAvailability(env, target, true); err != nil {
			return err
		}
		got, err := sel.RequestHosts(env, a, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("A's grant: got %v, want [%v]", got, target)
		}
		aEpoch := c.HostEpoch(a)
		c.CrashHost(env, a)
		c.ReapDeadHost(env, a, aEpoch)
		if err := env.Sleep(10 * time.Minute); err != nil {
			return err
		}
		got, err = sel.RequestHosts(env, b, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("B's grant after A's reap: got %v, want [%v]", got, target)
		}
		if err := sel.Release(env, b, got); err != nil {
			return err
		}

		// A restarts, crashes again, and restarts once more before that
		// second death is reaped. Its newest incarnation is granted the
		// target; the late reap of the older incarnation must leave that
		// grant alone.
		c.RestartHost(env, a)
		aEpoch = c.HostEpoch(a)
		c.CrashHost(env, a)
		c.RestartHost(env, a)
		if err := env.Sleep(time.Minute); err != nil {
			return err
		}
		if got, err = sel.RequestHosts(env, a, 1); err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("A's grant after restart: got %v, want [%v]", got, target)
		}
		c.ReapDeadHost(env, a, aEpoch)
		if got, err = sel.RequestHosts(env, b, 2); err != nil {
			return err
		}
		for _, h := range got {
			if h == target {
				t.Fatalf("B got %v while A's new incarnation holds %v", got, target)
			}
		}
		c.Stop()
		return nil
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
}
