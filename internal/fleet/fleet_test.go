package fleet

import (
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/hostsel"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

func TestSignalDecay(t *testing.T) {
	var s signal
	half := 100 * time.Millisecond
	s.bump(0, half, 4)
	if got := s.at(0, half); got != 4 {
		t.Errorf("at(0) = %v, want 4", got)
	}
	if got := s.at(100*time.Millisecond, half); got < 1.99 || got > 2.01 {
		t.Errorf("at(half-life) = %v, want ~2", got)
	}
	if got := s.at(300*time.Millisecond, half); got < 0.49 || got > 0.51 {
		t.Errorf("at(3 half-lives) = %v, want ~0.5", got)
	}
	// A later bump folds the decayed remainder in.
	s.bump(100*time.Millisecond, half, 1)
	if got := s.at(100*time.Millisecond, half); got < 2.99 || got > 3.01 {
		t.Errorf("after second bump = %v, want ~3", got)
	}
}

// TestFilterHostsDropsNonActive: only Active hosts pass the placement
// filter, and the rest keep the selector's order.
func TestFilterHostsDropsNonActive(t *testing.T) {
	f := newFix(t, 4, fastParams())
	hosts := make([]rpc.HostID, 0, 4)
	for _, k := range f.c.Workstations() {
		hosts = append(hosts, k.Host())
	}
	// The selector's order, deliberately not sorted by host id.
	offered := []rpc.HostID{hosts[3], hosts[1], hosts[0], hosts[2]}
	f.run(func(env *sim.Env) error {
		f.m.Cordon(env, hosts[1], "test")
		got := f.m.FilterHosts(offered)
		want := []rpc.HostID{hosts[3], hosts[0], hosts[2]}
		if len(got) != len(want) {
			t.Fatalf("filtered set = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("filtered set = %v, want %v", got, want)
				break
			}
		}
		return nil
	})
}

// TestWrapSelectorReleasesRejects: the wrapped selector over-requests by
// PlacementSlack, hands the host its filter rejects (a cordoned host the
// inner selector still offers) and the overshoot back to the inner
// selector. A claim ledger under it sees no leaked grant at the end of the
// run.
func TestWrapSelectorReleasesRejects(t *testing.T) {
	p := fastParams()
	p.PlacementSlack = 2
	f := newFix(t, 6, p)
	ledger := hostsel.NewClaimLedger(f.sel, f.c, 0)
	ledger.Register(f.c)
	wrapped := f.m.WrapSelector(ledger)
	client := f.c.Workstation(0).Host()
	cordoned := f.c.Workstation(1).Host()
	f.run(func(env *sim.Env) error {
		f.m.Cordon(env, cordoned, "operator")
		// A stale inner view still offers the cordoned host.
		if err := f.sel.NotifyAvailability(env, cordoned, true); err != nil {
			return err
		}
		// The inner selector grants ws1..ws4; ws1 is filtered out, ws4 is
		// the overshoot.
		got, err := wrapped.RequestHosts(env, client, 2)
		if err != nil {
			return err
		}
		want := []rpc.HostID{f.c.Workstation(2).Host(), f.c.Workstation(3).Host()}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("granted %v, want %v", got, want)
		}
		if n := ledger.Outstanding(); n != len(got) {
			t.Errorf("inner selector holds %d grants after the request, want %d (rejects and overshoot released)", n, len(got))
		}
		if err := env.Sleep(10 * time.Millisecond); err != nil {
			return err
		}
		if err := wrapped.Release(env, client, got); err != nil {
			return err
		}
		if n := ledger.Outstanding(); n != 0 {
			t.Errorf("inner selector holds %d grants after release, want 0", n)
		}
		return nil
	})
}

// TestManagerDeterministic: the same scenario twice produces the same
// committed event order and metrics — the controller adds no
// nondeterminism.
func TestManagerDeterministic(t *testing.T) {
	run := func() (uint64, string) {
		f := newFix(t, 4, fastParams())
		victim := f.c.Workstation(1)
		f.run(func(env *sim.Env) error {
			p, err := spinProc(env, victim, "wanderer", 300*time.Millisecond)
			if err != nil {
				return err
			}
			_ = p
			f.m.Cordon(env, victim.Host(), "rehearsal")
			if err := f.readmit(env, victim.Host()); err != nil {
				return err
			}
			return env.Sleep(50 * time.Millisecond)
		})
		return f.c.Sim().OrderDigest(), f.c.MetricsSnapshot().Text()
	}
	d1, m1 := run()
	d2, m2 := run()
	if d1 != d2 {
		t.Errorf("order digests differ:\n  %x\n  %x", d1, d2)
	}
	if m1 != m2 {
		t.Error("metrics snapshots differ between identical runs")
	}
}

var _ = core.NilPID // keep the import used if assertions above change
