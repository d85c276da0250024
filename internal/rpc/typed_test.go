package rpc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sprite/internal/netsim"
	"sprite/internal/sim"
)

// Wire types of the typed test services: two words each, so boxing either
// into an interface allocates.
type (
	pairArgs  struct{ A, B int }
	pairReply struct{ Sum, Diff int }
)

var (
	typedPair = NewService[pairArgs, pairReply]("typed.pair")
	typedBulk = NewService[pairArgs, pairReply]("typed.bulk")
)

func servePair(_ *sim.Env, _ HostID, a pairArgs) (pairReply, int, error) {
	return pairReply{Sum: a.A + a.B, Diff: a.A - a.B}, 32, nil
}

// TestTypedCallAllocs bounds what one steady-state direct call allocates:
// nothing through a typed descriptor, whose argument and reply pass by
// value, and two boxes — the argument and the reply — through the untyped
// by-name wrapper. Each measurement builds a fresh fabric, so the per-call
// cost is the slope between two call counts.
func TestTypedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	measure := func(calls int, typed bool) float64 {
		return testing.AllocsPerRun(3, func() {
			s, tr := newFabric(t, 2)
			typedPair.Handle(tr.Endpoint(2), servePair)
			tr.Endpoint(2).Handle("typed.pairAny", func(env *sim.Env, from HostID, arg any) (any, int, error) {
				return servePair(env, from, arg.(pairArgs))
			})
			client := tr.Endpoint(1)
			s.Spawn("client", func(env *sim.Env) error {
				for i := 0; i < calls; i++ {
					var err error
					if typed {
						_, err = typedPair.Call(client, env, 2, pairArgs{i, 1}, 16)
					} else {
						_, err = client.Call(env, 2, "typed.pairAny", pairArgs{i, 1}, 16)
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
		})
	}
	const small, large = 100, 1100
	for _, c := range []struct {
		typed  bool
		lo, hi float64
	}{{true, 0, 0.1}, {false, 1.9, 2.1}} {
		perCall := (measure(large, c.typed) - measure(small, c.typed)) / (large - small)
		t.Logf("typed=%v: %.2f allocations per direct call", c.typed, perCall)
		if perCall < c.lo || perCall > c.hi {
			t.Errorf("typed=%v: a direct call allocates %.2f, want %.1f..%.1f", c.typed, perCall, c.lo, c.hi)
		}
	}
}

// TestTypedConfinedCall drives typed calls and bulk calls through confined
// fabrics, where the values ride the pooled call records as mailbox
// messages, and checks every reply and the run's order digest against the
// serial kernel at two workers. A handler error comes back with the zero
// reply, typed, on every path.
func TestTypedConfinedCall(t *testing.T) {
	boom := errors.New("boom")
	run := func(workers int) (string, uint64) {
		s := sim.New(1)
		s.SetLookahead(time.Millisecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7})
		tr := NewTransport(s, net, DefaultParams())
		const hosts = 3
		for h := HostID(1); h <= hosts; h++ {
			ep := tr.Register(h)
			typedPair.Handle(ep, func(env *sim.Env, from HostID, a pairArgs) (pairReply, int, error) {
				if a.B < 0 {
					return pairReply{}, 0, boom
				}
				if err := env.Sleep(time.Duration(a.A%3) * 100 * time.Microsecond); err != nil {
					return pairReply{}, 0, err
				}
				return servePair(env, from, a)
			})
			typedBulk.Handle(ep, servePair)
		}
		if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
			t.Fatal(err)
		}
		logs := make([]string, hosts+1)
		for h := HostID(1); h <= hosts; h++ {
			s.SpawnOn(int(h), fmt.Sprintf("client-%v", h), func(env *sim.Env) error {
				var b strings.Builder
				ep := tr.Endpoint(h)
				for c := 0; c < 20; c++ {
					to := HostID(c%hosts + 1) // includes the local shortcut
					a := pairArgs{A: int(h)*100 + c, B: c%7 - 1}
					r, err := typedPair.Call(ep, env, to, a, 16)
					if (err != nil) != (a.B < 0) || (err == nil && r != pairReply{a.A + a.B, a.A - a.B}) || (err != nil && r != pairReply{}) {
						return fmt.Errorf("call %+v to %v: reply %+v, err %v", a, to, r, err)
					}
					fmt.Fprintf(&b, "%v->%v %+v %v @%v\n", h, to, r, err, env.Now())
					r, bs, err := typedBulk.CallBulk(ep, env, to, a, 16, 40<<10, BulkOut)
					if err != nil || r != (pairReply{a.A + a.B, a.A - a.B}) {
						return fmt.Errorf("bulk %+v to %v: reply %+v, err %v", a, to, r, err)
					}
					fmt.Fprintf(&b, "bulk %v->%v %+v %+v @%v\n", h, to, r, bs, env.Now())
				}
				logs[h] = b.String()
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return strings.Join(logs, ""), s.OrderDigest()
	}
	serialLog, serialDigest := run(0)
	parLog, parDigest := run(2)
	if serialLog != parLog || serialDigest != parDigest {
		t.Fatalf("parallel run diverged from serial: digest %016x vs %016x\nserial:\n%s\nparallel:\n%s", parDigest, serialDigest, serialLog, parLog)
	}
}

// TestTypedServiceSignatureClash pins the registry's one rule: a name has
// one signature.
func TestTypedServiceSignatureClash(t *testing.T) {
	if NewService[pairArgs, pairReply]("typed.pair") != typedPair {
		t.Fatal("redeclaring a service with its own signature must return its descriptor")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("declaring typed.pair with another signature should panic")
		}
	}()
	NewService[any, any]("typed.pair")
}

// TestTypedAtMostOnceCachedReply answers a retransmission from the server's
// at-most-once cache after the caller's call record has been reused. Over a
// faulty transport a cached reply lives in a slot of its own, so it must
// still read the first call's typed reply once the caller's slot has been
// recycled, cleared and perhaps reused; a reply cached in the caller's slot
// would read the zero reply instead. The handler runs once per call.
func TestTypedAtMostOnceCachedReply(t *testing.T) {
	for _, workers := range []int{0, 2} {
		s, tr := pooledFabric(workers)
		tr.SetInjector(armTimeout{}) // a faulty transport: replies are cached
		execs := 0
		typedPair.Handle(tr.Endpoint(2), func(env *sim.Env, from HostID, a pairArgs) (pairReply, int, error) {
			execs++
			return servePair(env, from, a)
		})
		var late pairReply
		s.SpawnOn(1, "client", func(env *sim.Env) error {
			client := tr.Endpoint(1)
			if _, err := typedPair.Call(client, env, 2, pairArgs{5, 3}, 16); err != nil {
				return err
			}
			rec := client.calls[len(client.calls)-1]
			if r, err := typedPair.Call(client, env, 2, pairArgs{10, 1}, 16); err != nil || r != (pairReply{11, 9}) {
				return fmt.Errorf("second call: reply %+v, err %v", r, err)
			}
			if len(client.calls) != 1 || client.calls[0] != rec {
				return errors.New("the second call did not reuse the first call's record")
			}
			// Retransmit the first call (transaction 1); the server answers
			// from its cache without reading the argument.
			box := sim.NewMailboxOn(env.Sim(), env.Shard(), 0)
			tr.Endpoint(2).reqBox.SendAfter(env, &confReq{
				from: 1, xid: 1, svc: &typedPair.svc, slot: new(slot[pairArgs, pairReply]), reply: box,
			}, time.Millisecond)
			v, err := box.Recv(env)
			if err != nil {
				return err
			}
			late = v.(*confReply).slot.(*slot[pairArgs, pairReply]).rep
			return nil
		})
		if err := s.Run(0); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if want := (pairReply{8, 2}); late != want {
			t.Errorf("workers %d: the retransmission was answered with %+v, want the cached %+v", workers, late, want)
		}
		if execs != 2 {
			t.Errorf("workers %d: the handler ran %d times for 2 calls and a retransmission", workers, execs)
		}
	}
}
