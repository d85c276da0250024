package rpc

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/netsim"
	"sprite/internal/sim"
)

func newFabric(t *testing.T, hosts int) (*sim.Simulation, *Transport) {
	t.Helper()
	s := sim.New(1)
	net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e6})
	tr := NewTransport(s, net, Params{ClientOverhead: time.Millisecond})
	for i := 1; i <= hosts; i++ {
		tr.Register(HostID(i))
	}
	return s, tr
}

func TestCallRoundTrip(t *testing.T) {
	s, tr := newFabric(t, 2)
	tr.Endpoint(2).Handle("echo", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return arg, 100, nil
	})
	var got any
	var took time.Duration
	s.Spawn("caller", func(env *sim.Env) error {
		v, err := tr.Endpoint(1).Call(env, 2, "echo", "hello", 100)
		if err != nil {
			return err
		}
		got = v
		took = env.Now()
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %v", got)
	}
	// overhead 1ms + 2 messages: each 1ms latency + 0.1ms transfer = 3.2ms
	want := time.Millisecond + 2*(time.Millisecond+100*time.Microsecond)
	if took != want {
		t.Fatalf("round trip %v, want %v", took, want)
	}
}

func TestLocalCallIsFree(t *testing.T) {
	s, tr := newFabric(t, 1)
	tr.Endpoint(1).Handle("ping", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return "pong", 4, nil
	})
	var took time.Duration
	s.Spawn("caller", func(env *sim.Env) error {
		if _, err := tr.Endpoint(1).Call(env, 1, "ping", nil, 4); err != nil {
			return err
		}
		took = env.Now()
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if took != 0 {
		t.Fatalf("local call took %v, want 0", took)
	}
	if tr.Network().Messages() != 0 {
		t.Fatal("local call should not touch the network")
	}
}

func TestCallErrors(t *testing.T) {
	s, tr := newFabric(t, 2)
	var noSvc, noHost, down error
	s.Spawn("caller", func(env *sim.Env) error {
		_, noSvc = tr.Endpoint(1).Call(env, 2, "missing", nil, 1)
		_, noHost = tr.Endpoint(1).Call(env, 99, "x", nil, 1)
		tr.Endpoint(2).SetDown(true)
		tr.Endpoint(2).Handle("x", func(env *sim.Env, from HostID, arg any) (any, int, error) {
			return nil, 0, nil
		})
		_, down = tr.Endpoint(1).Call(env, 2, "x", nil, 1)
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(noSvc, ErrNoService) {
		t.Fatalf("noSvc = %v", noSvc)
	}
	if !errors.Is(noHost, ErrNoHost) {
		t.Fatalf("noHost = %v", noHost)
	}
	if !errors.Is(down, ErrHostDown) {
		t.Fatalf("down = %v", down)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	s, tr := newFabric(t, 2)
	sentinel := errors.New("kaboom")
	tr.Endpoint(2).Handle("fail", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return nil, 0, sentinel
	})
	var got error
	s.Spawn("caller", func(env *sim.Env) error {
		_, got = tr.Endpoint(1).Call(env, 2, "fail", nil, 1)
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, sentinel) {
		t.Fatalf("got %v", got)
	}
	st := tr.Stats()["fail"]
	if st.Calls != 1 || st.Errs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBroadcastCollectsReplies(t *testing.T) {
	s, tr := newFabric(t, 4)
	idle := NewService[struct{}, HostID]("idle?")
	for i := 2; i <= 4; i++ {
		id := HostID(i)
		idle.Handle(tr.Endpoint(id), func(env *sim.Env, from HostID, _ struct{}) (HostID, int, error) {
			if id == 3 {
				return 0, 0, errors.New("busy")
			}
			return id, 8, nil
		})
	}
	var replies map[HostID]HostID
	s.Spawn("caller", func(env *sim.Env) error {
		var err error
		replies, err = idle.Broadcast(tr.Endpoint(1), env, struct{}{}, 16)
		return err
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("replies = %v", replies)
	}
	if replies[2] != HostID(2) || replies[4] != HostID(4) {
		t.Fatalf("replies = %v", replies)
	}
	// Broadcast replies are booked under "<service>.bcast", not the service.
	st := tr.Stats()
	if got := st["idle?.bcast"]; got.Calls != 2 || got.Bytes != 2*(16+8) {
		t.Fatalf("idle?.bcast stats = %+v", got)
	}
	if _, ok := st["idle?"]; ok {
		t.Fatalf("broadcast booked as a call: %v", st)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s, tr := newFabric(t, 2)
	tr.Endpoint(2).Handle("svc", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return nil, 50, nil
	})
	s.Spawn("caller", func(env *sim.Env) error {
		for i := 0; i < 3; i++ {
			if _, err := tr.Endpoint(1).Call(env, 2, "svc", nil, 50); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()["svc"]
	if st.Calls != 3 || st.Bytes != 300 {
		t.Fatalf("stats = %+v", st)
	}
	if tr.Totals().Calls != 3 {
		t.Fatalf("total = %d", tr.Totals().Calls)
	}
}

func TestHostsSorted(t *testing.T) {
	_, tr := newFabric(t, 3)
	ids := tr.Hosts()
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("hosts = %v", ids)
	}
}

// TestHintPiggyback: a hint provider installed on the server endpoint rides
// on ordinary replies — the observer sees (caller, server, payload) on the
// caller's side, and the hint's size is charged to the reply message.
func TestHintPiggyback(t *testing.T) {
	s, tr := newFabric(t, 2)
	tr.Endpoint(2).Handle("svc", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return "reply", 100, nil
	})
	tr.Endpoint(2).SetHintProvider(func() (any, int) {
		return "evict host9", 12
	})
	type seen struct {
		caller, server HostID
		payload        any
	}
	var got []seen
	tr.SetHintObserver(func(caller, server HostID, payload any) {
		got = append(got, seen{caller, server, payload})
	})
	var plain, hinted time.Duration
	s.Spawn("caller", func(env *sim.Env) error {
		t0 := env.Now()
		if _, err := tr.Endpoint(1).Call(env, 2, "svc", nil, 100); err != nil {
			return err
		}
		hinted = env.Now() - t0
		// Same call with the provider removed: the reply is 12 bytes lighter.
		tr.Endpoint(2).SetHintProvider(nil)
		t0 = env.Now()
		if _, err := tr.Endpoint(1).Call(env, 2, "svc", nil, 100); err != nil {
			return err
		}
		plain = env.Now() - t0
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("observer fired %d times, want 1", len(got))
	}
	if got[0].caller != 1 || got[0].server != 2 || got[0].payload != "evict host9" {
		t.Fatalf("observed %+v", got[0])
	}
	if hinted <= plain {
		t.Fatalf("hinted reply (%v) should cost more than plain reply (%v): hint bytes not charged", hinted, plain)
	}
}

// TestHintPiggybackInertWhenEmpty: a provider returning (nil, 0) adds no
// bytes and never reaches the observer — quiet endpoints keep default runs
// byte-identical.
func TestHintPiggybackInertWhenEmpty(t *testing.T) {
	s, tr := newFabric(t, 2)
	tr.Endpoint(2).Handle("svc", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return nil, 100, nil
	})
	fired := 0
	tr.SetHintObserver(func(caller, server HostID, payload any) { fired++ })
	var withProvider time.Duration
	s.Spawn("caller", func(env *sim.Env) error {
		t0 := env.Now()
		if _, err := tr.Endpoint(1).Call(env, 2, "svc", nil, 100); err != nil {
			return err
		}
		base := env.Now() - t0
		tr.Endpoint(2).SetHintProvider(func() (any, int) { return nil, 0 })
		t0 = env.Now()
		if _, err := tr.Endpoint(1).Call(env, 2, "svc", nil, 100); err != nil {
			return err
		}
		withProvider = env.Now() - t0
		if withProvider != base {
			t.Errorf("empty provider changed reply timing: %v vs %v", withProvider, base)
		}
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("observer fired %d times for empty hints, want 0", fired)
	}
}

// TestHintPiggybackSkipsLocalShortcut: same-host calls bypass the network
// and carry no piggyback.
func TestHintPiggybackSkipsLocalShortcut(t *testing.T) {
	s, tr := newFabric(t, 1)
	tr.Endpoint(1).Handle("svc", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return nil, 4, nil
	})
	tr.Endpoint(1).SetHintProvider(func() (any, int) { return "hint", 4 })
	fired := 0
	tr.SetHintObserver(func(caller, server HostID, payload any) { fired++ })
	s.Spawn("caller", func(env *sim.Env) error {
		_, err := tr.Endpoint(1).Call(env, 1, "svc", nil, 4)
		return err
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("observer fired %d times on a local call, want 0", fired)
	}
}

// TestHintProviderSurvivesRestart: like handlers, the provider is part of
// the host's configuration, not its volatile state.
func TestHintProviderSurvivesRestart(t *testing.T) {
	s, tr := newFabric(t, 2)
	tr.Endpoint(2).Handle("svc", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return nil, 4, nil
	})
	tr.Endpoint(2).SetHintProvider(func() (any, int) { return "still here", 4 })
	fired := 0
	tr.SetHintObserver(func(caller, server HostID, payload any) { fired++ })
	tr.Endpoint(2).SetDown(true)
	tr.Endpoint(2).Restart()
	s.Spawn("caller", func(env *sim.Env) error {
		_, err := tr.Endpoint(1).Call(env, 2, "svc", nil, 4)
		return err
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("observer fired %d times after restart, want 1", fired)
	}
}
