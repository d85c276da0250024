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
// through one endpoint, so its call records and their reply boxes are reused,
// under faults that make replies arrive twice and late:
//
//   - every third call's handler outlasts the call timeout, so the
//     retransmission parks behind it and the handler answers both at once —
//     a second reply is delivered to the box the call has already left;
//   - every third call's first reply is held up by the network past the
//     timeout, the retransmission is answered promptly from the server's
//     cache, and the original lands while a later call is in flight;
//   - every third call is clean, consumes its one reply, and recycles its
//     record for the next two to pick up.
//
// Each call is followed by a bulk read, whose execution hop sends the
// record's own request and has its reply written into the record's own
// reply even on a faulty transport. Each call must get its own reply, every
// recycled box must be empty, no recycled record may still point at its
// last call's argument, value or reply box, and both kernels must commit
// the same order.
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
		tr.Endpoint(2).Handle("blob", func(env *sim.Env, from HostID, arg any) (any, int, error) {
			return arg, 4096, nil
		})
		tr.ConfineHosts(func(h HostID) int { return int(h) })
		s.SpawnOn(1, "client", func(env *sim.Env) error {
			for i := 0; i < calls; i++ {
				v, err := client.Call(env, 2, "echo", i, 64)
				if err != nil || v != i {
					t.Errorf("workers %d: call %d returned %v, %v: not its own reply", workers, i, v, err)
				}
				v, _, err = client.CallBulk(env, 2, "blob", -i, 64, 0, BulkIn)
				if err != nil || v != -i {
					t.Errorf("workers %d: bulk read %d returned %v, %v: not its own reply", workers, i, v, err)
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
		if len(client.calls) == 0 {
			t.Errorf("workers %d: no call record was ever recycled; the test exercises nothing", workers)
		}
		for _, rec := range client.calls {
			if n := rec.box.Len(); n != 0 {
				t.Errorf("workers %d: a recycled call record's box holds %d stale replies", workers, n)
			}
			if rec.req.arg != nil || rec.req.reply != nil || rec.req.rep != nil || rec.rep.value != nil {
				t.Errorf("workers %d: a recycled call record still holds its last call: req %+v, rep %+v", workers, rec.req, rec.rep)
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
// allocates in steady state: nothing. The request and reply ride in the
// caller's recycled call record, the handler activity is a parked one woken
// again, and there is no mailbox, delivery closure or formatted name per
// call. Dispatcher daemons end with the run, so each measurement builds a
// fresh fabric and the per-call cost is the slope between two call counts —
// for activities spawned as for allocations. The ceiling is half an
// allocation: any one object a call allocates every time, such as a reply
// the server allocates instead of filling the caller's slot, takes the
// slope to 1.
func TestConfinedCallAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const ceiling = 0.5
	measure := func(calls int) (allocs float64, spawned uint64) {
		allocs = testing.AllocsPerRun(3, func() {
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
			spawned = s.Stats().Spawned
		})
		return allocs, spawned
	}
	const small, large = 100, 1100
	allocsSmall, spawnedSmall := measure(small)
	allocsLarge, spawnedLarge := measure(large)
	perCall := (allocsLarge - allocsSmall) / (large - small)
	t.Logf("%.2f allocations per confined call", perCall)
	if perCall > ceiling {
		t.Fatalf("a confined call allocates %.2f, ceiling %.1f", perCall, ceiling)
	}
	if spawnedLarge != spawnedSmall {
		t.Fatalf("%d calls spawned %d activities, %d calls %d: steady-state calls must reuse their handler",
			small, spawnedSmall, large, spawnedLarge)
	}
}
