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

		// A's next incarnation re-claiming must not be scrubbed by a late
		// (idempotent) re-reap of the old epoch.
		if err := ledger.Release(env, b, got); err != nil {
			return err
		}
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
		c.ReapDeadHost(env, a, aEpoch) // stale epoch: must be a no-op
		if oc := sel.OutstandingClaims(env.Now()); oc[target] != a {
			t.Fatalf("claims after stale re-reap %v, want %v held by %v", oc, target, a)
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
