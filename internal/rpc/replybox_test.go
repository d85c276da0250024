package rpc

import (
	"testing"
	"time"

	"sprite/internal/netsim"
	"sprite/internal/sim"
)

// armTimeout perturbs nothing: being installed at all is what arms the
// client's reply timeout, which the late replies below need.
type armTimeout struct{}

func (armTimeout) Intercept(env *sim.Env, from, to HostID, service string, attempt int) Verdict {
	return Verdict{}
}

// lateMark is the reply size that marks a reply for the network hook below.
const lateMark = 999

// TestReplyBoxReuseDropsLateReplies runs one client's calls back to back
// through one endpoint, so its reply boxes are reused, under faults that make
// replies arrive twice and late:
//
//   - every third call's handler outlasts the call timeout, so the
//     retransmission parks behind it and the handler answers both at once —
//     a second reply is delivered to the box the call has already left;
//   - every third call's first reply is held up by the network past the
//     timeout, the retransmission is answered promptly from the server's
//     cache, and the original lands while a later call is in flight;
//   - every third call is clean, consumes its one reply, and recycles its box
//     for the next two to pick up.
//
// Each call must get its own reply, every recycled box must be empty, and
// both kernels must commit the same order.
func TestReplyBoxReuseDropsLateReplies(t *testing.T) {
	const calls = 30
	type result struct {
		digest  uint64
		retries uint64
	}
	run := func(workers int) result {
		const latency = time.Millisecond
		s := sim.New(7)
		s.SetLookahead(latency)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		net := netsim.New(s, netsim.Params{Latency: latency, BandwidthBytesPerSec: 1e7})
		params := DefaultParams()
		tr := NewTransport(s, net, params)
		tr.SetInjector(armTimeout{})
		// Marked replies all leave from the server's shard, so the counter
		// is shard-local state: every other one is held up past the timeout.
		marked := 0
		net.SetHook(func(env *sim.Env, bytes int) (time.Duration, bool) {
			if bytes != lateMark {
				return 0, false
			}
			marked++
			if marked%2 == 1 {
				return params.CallTimeout + 15*time.Millisecond, false
			}
			return 0, false
		})
		client := tr.Register(1)
		execs := 0
		tr.Register(2).Handle("echo", func(env *sim.Env, from HostID, arg any) (any, int, error) {
			execs++
			i := arg.(int)
			switch i % 3 {
			case 0:
				if err := env.Sleep(params.CallTimeout * 3 / 2); err != nil {
					return nil, 0, err
				}
			case 1:
				return i, lateMark, nil
			}
			return i, 16, nil
		})
		tr.ConfineHosts(func(h HostID) int { return int(h) })
		s.SpawnOn(1, "client", func(env *sim.Env) error {
			for i := 0; i < calls; i++ {
				v, err := client.Call(env, 2, "echo", i, 64)
				if err != nil || v != i {
					t.Errorf("workers %d: call %d returned %v, %v: not its own reply", workers, i, v, err)
				}
			}
			return nil
		})
		if err := s.Run(0); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if execs != calls {
			t.Errorf("workers %d: handler ran %d times for %d calls", workers, execs, calls)
		}
		if len(client.replyBoxes) == 0 {
			t.Errorf("workers %d: no reply box was ever recycled; the test exercises nothing", workers)
		}
		for _, box := range client.replyBoxes {
			if box.Len() != 0 {
				t.Errorf("workers %d: a recycled reply box holds %d stale replies", workers, box.Len())
			}
		}
		return result{s.OrderDigest(), tr.Retries()}
	}
	serial := run(0)
	if want := uint64(calls * 2 / 3); serial.retries != want {
		t.Fatalf("%d retransmissions, want %d: the slow and the delayed calls must each retransmit once", serial.retries, want)
	}
	if par := run(2); par != serial {
		t.Fatalf("kernels diverged: serial %+v, workers=2 %+v", serial, par)
	}
}

// TestConfinedCallAllocCeiling bounds what one no-fault confined call
// allocates: the request, the reply, and the handler activity — no mailbox,
// no delivery closures, no formatted name. Dispatcher daemons end with the
// run, so each measurement builds a fresh fabric and the per-call cost is
// the slope between two call counts.
func TestConfinedCallAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const ceiling = 5
	allocs := func(calls int) float64 {
		return testing.AllocsPerRun(3, func() {
			s := sim.New(1)
			s.SetLookahead(time.Millisecond)
			net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7})
			tr := NewTransport(s, net, DefaultParams())
			client := tr.Register(1)
			tr.Register(2).Handle("unit", func(*sim.Env, HostID, any) (any, int, error) { return nil, 16, nil })
			tr.ConfineHosts(func(h HostID) int { return int(h) })
			s.SpawnOn(1, "client", func(env *sim.Env) error {
				for i := 0; i < calls; i++ {
					if _, err := client.Call(env, 2, "unit", nil, 64); err != nil {
						return err
					}
				}
				return nil
			})
			if err := s.Run(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 100, 1100
	perCall := (allocs(large) - allocs(small)) / (large - small)
	t.Logf("%.2f allocations per confined call", perCall)
	if perCall > ceiling {
		t.Fatalf("a confined call allocates %.2f, ceiling %d", perCall, ceiling)
	}
}
