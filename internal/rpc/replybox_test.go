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
// last call's slot or reply box (TestConfinedRecycledSlotPinsNothing checks
// the slot itself), and both kernels must commit the same order.
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
		if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
			t.Fatal(err)
		}
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
			if rec.req.slot != nil || rec.req.reply != nil || rec.req.rep != nil || rec.rep.slot != nil {
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

var ptrPair = NewService[*pairArgs, *pairReply]("test.ptrPair")

// TestConfinedRecycledSlotPinsNothing makes confined calls whose argument
// and reply are pointers, and finds the typed slot a call carried zeroed
// once the call has returned: back in the service's pool, it pins neither.
// The handler reads the slot out of the caller's call record, so the fabric
// runs on the serial kernel.
func TestConfinedRecycledSlotPinsNothing(t *testing.T) {
	s, tr := pooledFabric(0)
	client := tr.Endpoint(1)
	var next *callRec // the recycled record the next call takes
	var carried *slot[*pairArgs, *pairReply]
	ptrPair.Handle(tr.Endpoint(2), func(*sim.Env, HostID, *pairArgs) (*pairReply, int, error) {
		if next != nil {
			carried = next.req.slot.(*slot[*pairArgs, *pairReply])
		}
		return new(pairReply), 16, nil
	})
	s.SpawnOn(1, "client", func(env *sim.Env) error {
		for i := 0; i < 2; i++ {
			if _, err := ptrPair.Call(client, env, 2, &pairArgs{A: i}, 64); err != nil {
				return err
			}
			next = client.calls[len(client.calls)-1]
		}
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if carried == nil {
		t.Fatal("the second call did not go out in the first call's recycled record")
	}
	if *carried != (slot[*pairArgs, *pairReply]{}) {
		t.Errorf("a returned call's slot still holds argument %+v, reply %+v", carried.arg, carried.rep)
	}
}

// TestConfinedCallAllocCeiling bounds what one no-fault confined call
// allocates in steady state: nothing, through the untyped by-name wrapper
// with nil values and through a typed service whose argument and reply are
// two-word structs. The request and reply ride in the caller's recycled call
// record, the argument and the reply in its typed slot, the handler activity
// is a parked one woken again, and there is no mailbox, delivery closure,
// box or formatted name per call. Dispatcher daemons end with the run, so
// each measurement builds a fresh fabric and the per-call cost is the slope
// between two call counts — for activities spawned as for allocations. The
// ceiling is half an allocation: any one object a call allocates every
// time, such as a reply the server allocates instead of filling the
// caller's slot, or an argument or reply boxed into an interface, takes the
// slope to 1.
func TestConfinedCallAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const ceiling = 0.5
	measure := func(calls int, typed bool) (allocs float64, spawned uint64) {
		allocs = testing.AllocsPerRun(3, func() {
			s := sim.New(1)
			s.SetLookahead(time.Millisecond)
			net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7})
			tr := NewTransport(s, net, DefaultParams())
			client := tr.Register(1)
			tr.Register(2).Handle("unit", func(*sim.Env, HostID, any) (any, int, error) { return nil, 16, nil })
			typedPair.Handle(tr.Endpoint(2), servePair)
			if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
				t.Fatal(err)
			}
			s.SpawnOn(1, "client", func(env *sim.Env) error {
				for i := 0; i < calls; i++ {
					var err error
					if typed {
						var r pairReply
						r, err = typedPair.Call(client, env, 2, pairArgs{i, 1}, 64)
						if err == nil && r != (pairReply{i + 1, i - 1}) {
							t.Errorf("typed call %d replied %+v", i, r)
						}
					} else {
						_, err = client.Call(env, 2, "unit", nil, 64)
					}
					if err != nil {
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
	for _, typed := range []bool{false, true} {
		allocsSmall, spawnedSmall := measure(small, typed)
		allocsLarge, spawnedLarge := measure(large, typed)
		perCall := (allocsLarge - allocsSmall) / (large - small)
		t.Logf("typed=%v: %.2f allocations per confined call", typed, perCall)
		if perCall > ceiling {
			t.Errorf("typed=%v: a confined call allocates %.2f, ceiling %.1f", typed, perCall, ceiling)
		}
		if spawnedLarge != spawnedSmall {
			t.Errorf("typed=%v: %d calls spawned %d activities, %d calls %d: steady-state calls must reuse their handler",
				typed, small, spawnedSmall, large, spawnedLarge)
		}
	}
}
