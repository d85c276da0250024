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

func TestPricerLearnsInterArrivals(t *testing.T) {
	p := NewPricer(0.5, time.Hour)
	a, b := rpc.HostID(101), rpc.HostID(102)
	// No history: the optimistic horizon.
	if got := p.Score(a, 0); got != time.Hour {
		t.Errorf("unseen score = %v, want 1h", got)
	}
	// Two evictions 10s apart on a: its EMA seeds at the gap.
	p.ObserveEviction(a, 10*time.Second)
	p.ObserveEviction(a, 20*time.Second)
	if got := p.Expected(a); got != 10*time.Second {
		t.Errorf("expected gap = %v, want 10s", got)
	}
	// Right after an eviction the full runway remains; it shrinks as time
	// passes and floors at 1/8 of the expectation.
	if got := p.Score(a, 20*time.Second); got != 10*time.Second {
		t.Errorf("score right after eviction = %v, want 10s", got)
	}
	if got := p.Score(a, 26*time.Second); got != 4*time.Second {
		t.Errorf("score 6s in = %v, want 4s", got)
	}
	if got := p.Score(a, 2*time.Minute); got != 10*time.Second/8 {
		t.Errorf("overdue score = %v, want floor %v", got, 10*time.Second/8)
	}
	// b has no history and outranks the recently-evicted a.
	if p.Score(b, 21*time.Second) <= p.Score(a, 21*time.Second) {
		t.Error("fresh host should outrank a recently-evicted one")
	}
}

func TestShareLedger(t *testing.T) {
	l := NewShareLedger(100 * time.Millisecond)
	h1, h2 := rpc.HostID(1), rpc.HostID(2)
	if !l.Allow("alice") {
		t.Error("empty ledger must allow")
	}
	l.Acquire("alice", h1, 0)
	l.Release("alice", h1, 250*time.Millisecond)
	if got := l.Usage("alice", 250*time.Millisecond); got != 250*time.Millisecond {
		t.Errorf("usage = %v, want 250ms", got)
	}
	// Bob has used nothing: alice is 250ms ahead, beyond the 100ms slack.
	l.Acquire("bob", h2, 250*time.Millisecond)
	l.Release("bob", h2, 260*time.Millisecond)
	if l.Allow("alice") {
		t.Error("alice is over her share and must be denied")
	}
	if !l.Allow("bob") {
		t.Error("bob is the least-charged user and must be allowed")
	}
	// Bob catches up; alice is inside the slack again.
	l.Acquire("bob", h2, 300*time.Millisecond)
	l.Release("bob", h2, 500*time.Millisecond)
	if !l.Allow("alice") {
		t.Error("alice back inside the slack must be allowed")
	}
	// Open meters count toward usage but not Allow (booked-only).
	l.Acquire("alice", h1, 500*time.Millisecond)
	if got := l.Usage("alice", 600*time.Millisecond); got != 350*time.Millisecond {
		t.Errorf("usage with open meter = %v, want 350ms", got)
	}
	// Zero slack disables throttling.
	free := NewShareLedger(0)
	free.Acquire("x", h1, 0)
	free.Release("x", h1, time.Hour)
	if !free.Allow("x") {
		t.Error("zero-slack ledger must always allow")
	}
}

// TestFilterHostsStateAndPricing: only Active hosts pass the placement
// filter, ordered by expected runway; a user over its fairness share is
// denied outright.
func TestFilterHostsStateAndPricing(t *testing.T) {
	f := newFix(t, 4, fastParams())
	hosts := make([]rpc.HostID, 0, 4)
	for _, k := range f.c.Workstations() {
		hosts = append(hosts, k.Host())
	}
	client := hosts[0]
	f.run(func(env *sim.Env) error {
		// Cordon one host: it must vanish from placement.
		f.m.Cordon(env, hosts[1], "test")
		got := f.m.FilterHosts(env, client, hosts)
		for _, h := range got {
			if h == hosts[1] {
				t.Errorf("cordoned host %v passed the filter", h)
			}
		}
		if len(got) != 3 {
			t.Errorf("filtered set = %v, want 3 hosts", got)
		}
		// Two evictions in quick succession on hosts[2] teach the pricer a
		// short inter-arrival, pushing it behind the never-evicted hosts
		// (whose runway is the optimistic horizon).
		f.m.NoteEviction(hosts[2], env.Now())
		if err := env.Sleep(20 * time.Millisecond); err != nil {
			return err
		}
		f.m.NoteEviction(hosts[2], env.Now())
		got = f.m.FilterHosts(env, client, hosts)
		if len(got) != 3 || got[len(got)-1] != hosts[2] {
			t.Errorf("order = %v, want %v last (recently evicted)", got, hosts[2])
		}
		return nil
	})
}

// TestWrapSelectorFairness: the wrapped selector charges hold time to the
// ledger and denies a user who has hogged the pool.
func TestWrapSelectorFairness(t *testing.T) {
	p := fastParams()
	p.FairnessSlack = 50 * time.Millisecond
	f := newFix(t, 4, p)
	wrapped := f.m.WrapSelector(f.sel)
	alice := f.c.Workstation(0).Host()
	bob := f.c.Workstation(1).Host()
	f.run(func(env *sim.Env) error {
		// Bob books a sliver of usage first: users enter the fairness
		// comparison at their first grant.
		bgot0, err := wrapped.RequestHosts(env, bob, 1)
		if err != nil || len(bgot0) != 1 {
			return err
		}
		if err := env.Sleep(10 * time.Millisecond); err != nil {
			return err
		}
		if err := wrapped.Release(env, bob, bgot0); err != nil {
			return err
		}
		got, err := wrapped.RequestHosts(env, alice, 1)
		if err != nil || len(got) != 1 {
			return err
		}
		if err := env.Sleep(200 * time.Millisecond); err != nil {
			return err
		}
		if err := wrapped.Release(env, alice, got); err != nil {
			return err
		}
		// Alice has 200ms booked, bob 10ms: the spread beats the 50ms
		// slack, so alice is denied and bob is allowed.
		if _, err := wrapped.RequestHosts(env, alice, 1); err == nil {
			t.Error("over-share user got a grant, want denial")
		}
		bgot, err := wrapped.RequestHosts(env, bob, 1)
		if err != nil || len(bgot) != 1 {
			t.Errorf("least-charged user denied: %v", err)
			return nil
		}
		return wrapped.Release(env, bob, bgot)
	})
	if got := f.counter("fleet.fairness.denied"); got == 0 {
		t.Error("fleet.fairness.denied = 0, want > 0")
	}
}

// TestWrapSelectorReleasesRejects: the wrapped selector over-requests by
// PlacementSlack, hands the host its filter rejects (a cordoned host the
// inner selector still offers) and the overshoot back to the inner
// selector, and charges the share ledger for the kept hosts only. A claim
// ledger under it sees no leaked grant at the end of the run.
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
		user := client.String()
		if u := f.m.shares.Usage(user, env.Now()); u != 20*time.Millisecond {
			t.Errorf("share usage = %v, want 20ms (two kept hosts for 10ms)", u)
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
