package rpc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sprite/internal/netsim"
	"sprite/internal/sim"
)

// pooledFabric builds a two-host confined fabric (host i on shard i) on the
// serial kernel (workers 0) or the parallel one. The caller registers
// services on host 2 and spawns clients on shard 1.
func pooledFabric(workers int) (*sim.Simulation, *Transport) {
	s := sim.New(1)
	s.SetLookahead(time.Millisecond)
	if workers > 0 {
		s.ConfigureParallel(workers)
	}
	net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7})
	tr := NewTransport(s, net, DefaultParams())
	tr.Register(1)
	tr.Register(2)
	if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
		panic(err)
	}
	return s, tr
}

// TestConfinedPooledHandlerDeadlock serves a call from an idle handler that
// then blocks forever: woken from the pool, it is no longer a daemon and
// bears the name of the service it now runs, so the run fails with
// ErrDeadlock naming rpc-host2-hang, while the other idle handler stays out
// of the list.
func TestConfinedPooledHandlerDeadlock(t *testing.T) {
	for _, workers := range []int{0, 2} {
		s, tr := pooledFabric(workers)
		tr.Endpoint(2).Handle("fast", func(*sim.Env, HostID, any) (any, int, error) { return nil, 16, nil })
		tr.Endpoint(2).Handle("hang", func(env *sim.Env, _ HostID, arg any) (any, int, error) {
			if arg.(int) == 1 {
				_, err := sim.NewFuture().Wait(env) // never completed
				return nil, 0, err
			}
			return nil, 16, nil
		})
		// Two overlapping "fast" calls leave two handlers idle.
		s.SpawnOn(1, "other", func(env *sim.Env) error {
			_, err := tr.Endpoint(1).Call(env, 2, "fast", nil, 64)
			return err
		})
		s.SpawnOn(1, "client", func(env *sim.Env) error {
			ep := tr.Endpoint(1)
			if _, err := ep.Call(env, 2, "fast", nil, 64); err != nil {
				return err
			}
			for i := 0; i < 2; i++ {
				if _, err := ep.Call(env, 2, "hang", i, 64); err != nil {
					return err
				}
			}
			return nil
		})
		err := s.Run(0)
		want := fmt.Sprintf("%v: %v", sim.ErrDeadlock, []string{"client", "rpc-host2-hang"})
		if !errors.Is(err, sim.ErrDeadlock) || err.Error() != want {
			t.Errorf("workers %d: Run returned %v, want %s", workers, err, want)
		}
		// Two clients, two dispatchers, and the two "fast" handlers: both
		// "hang" calls ran on a handler a "fast" call left idle.
		if got := s.Stats().Spawned; got != 6 {
			t.Errorf("workers %d: %d activities spawned, want 6", workers, got)
		}
	}
}

// TestConfinedPooledHandlerPanic makes a pooled handler's service panic: the
// run reports the panic under the handler's name, and the dead handler never
// rejoins the pool, so a later call gets a new handler and its reply.
func TestConfinedPooledHandlerPanic(t *testing.T) {
	for _, workers := range []int{0, 2} {
		s, tr := pooledFabric(workers)
		tr.Endpoint(2).Handle("boom", func(_ *sim.Env, _ HostID, arg any) (any, int, error) {
			if arg.(int) == 1 {
				panic("boom on call 1")
			}
			return arg, 16, nil
		})
		s.SpawnOn(1, "client", func(env *sim.Env) error {
			for i := 0; i < 2; i++ {
				if _, err := tr.Endpoint(1).Call(env, 2, "boom", i, 64); err != nil {
					return err
				}
			}
			return nil
		})
		var late any
		s.SpawnOn(1, "late", func(env *sim.Env) error {
			if err := env.Sleep(50 * time.Millisecond); err != nil {
				return err
			}
			var err error
			late, err = tr.Endpoint(1).Call(env, 2, "boom", 2, 64)
			return err
		})
		err := s.Run(0)
		if want := `activity "rpc-host2-boom": panic: boom on call 1`; err == nil || err.Error() != want {
			t.Errorf("workers %d: Run returned %v, want %s", workers, err, want)
		}
		if late != 2 {
			t.Errorf("workers %d: the call after the panic returned %v, want 2", workers, late)
		}
		if n := len(tr.Endpoint(2).idle); n != 1 {
			t.Errorf("workers %d: %d idle handlers after the panic, want only the one spawned after it", workers, n)
		}
		if got := s.Stats().Spawned; got != 6 {
			t.Errorf("workers %d: %d activities spawned, want 6 (two clients, two dispatchers, two handlers)", workers, got)
		}
	}
}

// TestConfinedPooledHandlersOverlap issues two rounds of four overlapping
// calls to a slow service. Each round needs four handlers at once, so no
// call waits behind another: all four finish at the instant one call alone
// would, the instants the spawn-per-request transport reached. Only
// maxIdleHandlers of the first round's handlers park, so the second round
// wakes those and spawns the rest.
func TestConfinedPooledHandlersOverlap(t *testing.T) {
	const callers = 4
	for _, workers := range []int{0, 2} {
		s, tr := pooledFabric(workers)
		tr.Endpoint(2).Handle("slow", func(env *sim.Env, _ HostID, _ any) (any, int, error) {
			return nil, 16, env.Sleep(10 * time.Millisecond)
		})
		var done [2][callers]time.Duration
		for c := 0; c < callers; c++ {
			s.SpawnOn(1, fmt.Sprintf("caller-%d", c), func(env *sim.Env) error {
				for r := range done {
					if _, err := tr.Endpoint(1).Call(env, 2, "slow", nil, 64); err != nil {
						return err
					}
					done[r][c] = env.Now()
				}
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		want := [2]time.Duration{13_008 * time.Microsecond, 26_016 * time.Microsecond}
		for r := range done {
			for c, at := range done[r] {
				if at != want[r] {
					t.Errorf("workers %d: round %d call %d finished at %v, want %v", workers, r, c, at, want[r])
				}
			}
		}
		if want := callers + 2 + callers + (callers - maxIdleHandlers); s.Stats().Spawned != uint64(want) {
			t.Errorf("workers %d: %d activities spawned, want %d (callers, dispatchers, a handler per first-round call, and the second round's beyond the idle ones)",
				workers, s.Stats().Spawned, want)
		}
		if n := len(tr.Endpoint(2).idle); n != maxIdleHandlers {
			t.Errorf("workers %d: %d handlers parked idle, want the cap %d", workers, n, maxIdleHandlers)
		}
	}
}

// TestConfinedPooledHandlersUnwindAtQuiesce checks that a run which quiesces
// with idle handlers parked ends cleanly, with no activity left live.
func TestConfinedPooledHandlersUnwindAtQuiesce(t *testing.T) {
	for _, workers := range []int{0, 2} {
		s, tr := pooledFabric(workers)
		tr.Endpoint(2).Handle("unit", func(env *sim.Env, _ HostID, _ any) (any, int, error) {
			return nil, 16, env.Sleep(time.Millisecond)
		})
		for c := 0; c < 3; c++ {
			s.SpawnOn(1, fmt.Sprintf("caller-%d", c), func(env *sim.Env) error {
				for i := 0; i < 5; i++ {
					if _, err := tr.Endpoint(1).Call(env, 2, "unit", nil, 64); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if n := s.LiveActivities(); n != 0 {
			t.Errorf("workers %d: %d activities live after a quiesced run", workers, n)
		}
		// Each round overlaps three calls: the first spawns three handlers,
		// and each later one wakes the two parked and spawns a third.
		if got := s.Stats().Spawned; got != 3+2+3+4 {
			t.Errorf("workers %d: %d activities spawned, want 12 (callers, dispatchers, three handlers, then one per later round)", workers, got)
		}
	}
}

// TestConfinedHandlerShellsReused issues two bursts of four overlapping calls
// at one endpoint. The first burst spawns four handlers: two park, and two
// find the idle list full and end, leaving their shells spare. The second
// burst wakes the two idle handlers and spawns the other two in the spare
// shells, so it allocates no handler and no wake queue, while spawning
// exactly what a fresh handler per pool miss would.
func TestConfinedHandlerShellsReused(t *testing.T) {
	const callers = 4
	for _, workers := range []int{0, 2} {
		s, tr := pooledFabric(workers)
		server := tr.Endpoint(2)
		server.Handle("slow", func(env *sim.Env, _ HostID, _ any) (any, int, error) {
			return nil, 16, env.Sleep(10 * time.Millisecond)
		})
		// shells maps each handler left after a burst to its wake queue.
		shells := func() map[*handler]*sim.Queue {
			m := make(map[*handler]*sim.Queue)
			for _, h := range append(append([]*handler(nil), server.idle...), server.spare...) {
				m[h] = h.wake
			}
			return m
		}
		var after [2]map[*handler]*sim.Queue
		for c := 0; c < callers; c++ {
			s.SpawnOn(1, fmt.Sprintf("caller-%d", c), func(env *sim.Env) error {
				for burst := 0; burst < 2; burst++ {
					if _, err := tr.Endpoint(1).Call(env, 2, "slow", nil, 64); err != nil {
						return err
					}
					if err := env.Sleep(time.Duration(burst+1)*50*time.Millisecond - env.Now()); err != nil {
						return err
					}
				}
				return nil
			})
		}
		// The probe reads the server's lists from the server's shard, between
		// the bursts and after the second.
		s.SpawnOn(2, "probe", func(env *sim.Env) error {
			for burst := range after {
				if err := env.Sleep(time.Duration(burst)*50*time.Millisecond + 40*time.Millisecond - env.Now()); err != nil {
					return err
				}
				after[burst] = shells()
				if n := len(server.spare); n != callers-maxIdleHandlers {
					t.Errorf("workers %d: burst %d left %d spare shells, want %d", workers, burst, n, callers-maxIdleHandlers)
				}
			}
			return nil
		})
		if err := s.Run(0); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(after[0]) != callers || len(after[1]) != callers {
			t.Fatalf("workers %d: %d then %d handlers left, want %d after each burst", workers, len(after[0]), len(after[1]), callers)
		}
		for h, wake := range after[1] {
			if after[0][h] != wake {
				t.Errorf("workers %d: the second burst allocated a handler shell or its wake queue", workers)
			}
		}
		// Callers, the probe, dispatchers, the first burst's handlers and
		// the second burst's beyond the idle ones: a spawn per pool miss,
		// shell or no shell.
		if want := callers + 1 + 2 + callers + (callers - maxIdleHandlers); s.Stats().Spawned != uint64(want) {
			t.Errorf("workers %d: %d activities spawned, want %d", workers, s.Stats().Spawned, want)
		}
	}
}
