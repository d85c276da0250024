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

// confFP fingerprints everything observable about one confined-fabric run:
// the committed order digest, the virtual clock, every client's reply log,
// per-host handler execution counts, and the transport/network counters.
type confFP struct {
	digest   uint64
	now      time.Duration
	replies  string
	execs    string
	calls    uint64
	retries  uint64
	timeouts uint64
	messages uint64
	bytes    uint64
	runErr   string
}

func (fp confFP) String() string {
	return fmt.Sprintf("digest=%016x now=%v calls=%d retries=%d timeouts=%d msgs=%d bytes=%d runErr=%q\nexecs=%q\nreplies=%q",
		fp.digest, fp.now, fp.calls, fp.retries, fp.timeouts, fp.messages, fp.bytes, fp.runErr, fp.execs, fp.replies)
}

// pureInjector drops/delays messages as a pure function of
// (from, to, service, attempt), so verdicts are identical no matter which
// worker asks, in which order.
type pureInjector struct{}

func (pureInjector) Intercept(env *sim.Env, from, to HostID, service string, attempt int) Verdict {
	if attempt > 0 {
		return Verdict{}
	}
	k := int(from)*7 + int(to)*13 + len(service)
	return Verdict{
		DropRequest: k%5 == 0,
		DropReply:   k%5 != 0 && k%3 == 0,
		Delay:       time.Duration(k%3) * 100 * time.Microsecond,
	}
}

// runConfinedFabric builds an H-host confined fabric (host i on shard i),
// runs one ring-calling client per host, and fingerprints the result.
// Handlers charge virtual time on the server's shard, so calls overlap
// across hosts under the parallel kernel.
func runConfinedFabric(t *testing.T, seed int64, hosts, callsPerHost, workers int, faulty bool) confFP {
	t.Helper()
	const latency = time.Millisecond
	s := sim.New(seed)
	s.SetLookahead(latency)
	if workers > 0 {
		s.ConfigureParallel(workers)
	}
	net := netsim.New(s, netsim.Params{Latency: latency, BandwidthBytesPerSec: 1e7})
	tr := NewTransport(s, net, DefaultParams())
	if faulty {
		tr.SetInjector(pureInjector{})
	}
	execs := make([]int, hosts+1)
	for i := 1; i <= hosts; i++ {
		host := HostID(i)
		ep := tr.Register(host)
		ep.Handle("work", func(env *sim.Env, from HostID, arg any) (any, int, error) {
			execs[int(host)]++
			n := arg.(int)
			if err := env.Sleep(time.Duration(n%5+1) * 200 * time.Microsecond); err != nil {
				return nil, 0, err
			}
			return n * 2, 64 + n%32, nil
		})
	}
	if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
		t.Fatal(err)
	}

	logs := make([]string, hosts+1)
	for i := 1; i <= hosts; i++ {
		host := HostID(i)
		s.SpawnOn(int(host), fmt.Sprintf("client-%v", host), func(env *sim.Env) error {
			var b strings.Builder
			for c := 0; c < callsPerHost; c++ {
				to := HostID((int(host)+c)%hosts + 1)
				if to == host {
					to = HostID(int(to)%hosts + 1)
				}
				v, err := tr.Endpoint(host).Call(env, to, "work", int(host)*100+c, 96)
				fmt.Fprintf(&b, "%v->%v c%d v=%v err=%v @%d\n", host, to, c, v, err, env.Now()/time.Microsecond)
			}
			logs[int(host)] = b.String()
			return nil
		})
	}
	err := s.Run(0)
	fp := confFP{
		digest:   s.OrderDigest(),
		now:      s.Now(),
		replies:  strings.Join(logs, ""),
		calls:    tr.Totals().Calls,
		retries:  tr.Retries(),
		timeouts: tr.Timeouts(),
		messages: net.Messages(),
		bytes:    net.Bytes(),
	}
	var eb strings.Builder
	for i := 1; i <= hosts; i++ {
		fmt.Fprintf(&eb, "%d:%d ", i, execs[i])
	}
	fp.execs = eb.String()
	if err != nil {
		fp.runErr = err.Error()
	}
	return fp
}

// TestConfinedCallEquivalence pins the tentpole property at the rpc layer:
// with hosts confined, the serial oracle and the parallel kernel commit
// byte-identical outcomes at any worker count, with and without faults.
func TestConfinedCallEquivalence(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		for _, seed := range []int64{1, 42} {
			serial := runConfinedFabric(t, seed, 8, 12, 0, faulty)
			for _, workers := range []int{1, 2, 4, 8} {
				got := runConfinedFabric(t, seed, 8, 12, workers, faulty)
				if got != serial {
					t.Fatalf("seed %d faulty=%v workers %d diverged:\nserial: %v\npar:    %v",
						seed, faulty, workers, serial, got)
				}
			}
		}
	}
}

// TestConfinedAtMostOnce drives a reply-loss retransmission through the
// confined path and checks Sprite RPC's at-most-once contract: the handler
// runs exactly once, the retransmission is answered from the cached reply,
// and the retry is counted.
func TestConfinedAtMostOnce(t *testing.T) {
	for _, workers := range []int{0, 4} {
		s := sim.New(1)
		s.SetLookahead(time.Millisecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7})
		tr := NewTransport(s, net, DefaultParams())
		tr.SetInjector(dropFirstReply{})
		execs := 0
		tr.Register(1)
		tr.Register(2).Handle("once", func(env *sim.Env, from HostID, arg any) (any, int, error) {
			execs++
			return "done", 16, nil
		})
		if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
			t.Fatal(err)
		}
		var got any
		var gerr error
		s.SpawnOn(1, "caller", func(env *sim.Env) error {
			got, gerr = tr.Endpoint(1).Call(env, 2, "once", nil, 32)
			return nil
		})
		if err := s.Run(0); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if gerr != nil || got != "done" {
			t.Fatalf("workers %d: got %v, %v", workers, got, gerr)
		}
		if execs != 1 {
			t.Fatalf("workers %d: handler ran %d times, want exactly once", workers, execs)
		}
		if tr.Retries() != 1 || tr.Timeouts() != 0 {
			t.Fatalf("workers %d: retries=%d timeouts=%d, want 1/0", workers, tr.Retries(), tr.Timeouts())
		}
	}
}

type dropFirstReply struct{}

func (dropFirstReply) Intercept(env *sim.Env, from, to HostID, service string, attempt int) Verdict {
	return Verdict{DropReply: attempt == 0}
}

// TestConfinedSlowHandlerRetransmit parks a retransmission behind a handler
// still executing (slower than the call timeout): the duplicate must wait for
// the first execution instead of starting a second one. The wire carries
// three requests and two replies (the parked retransmission's, and the
// cached one the third attempt draws): the first attempt's reply stays
// eaten although the handler finishes after a retransmission, because each
// attempt of a faulty call is its own request.
func TestConfinedSlowHandlerRetransmit(t *testing.T) {
	for _, workers := range []int{0, 4} {
		s := sim.New(1)
		s.SetLookahead(time.Millisecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7})
		tr := NewTransport(s, net, DefaultParams())
		tr.SetInjector(dropFirstReply{})
		execs := 0
		tr.Register(1)
		tr.Register(2).Handle("slow", func(env *sim.Env, from HostID, arg any) (any, int, error) {
			execs++
			if err := env.Sleep(60 * time.Millisecond); err != nil {
				return nil, 0, err
			}
			return "slow-done", 16, nil
		})
		if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
			t.Fatal(err)
		}
		var got any
		var gerr error
		s.SpawnOn(1, "caller", func(env *sim.Env) error {
			got, gerr = tr.Endpoint(1).Call(env, 2, "slow", nil, 32)
			return nil
		})
		if err := s.Run(0); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if gerr != nil || got != "slow-done" {
			t.Fatalf("workers %d: got %v, %v", workers, got, gerr)
		}
		if execs != 1 {
			t.Fatalf("workers %d: handler ran %d times, want exactly once", workers, execs)
		}
		if n := net.Messages(); n != 5 {
			t.Fatalf("workers %d: %d messages on the wire, want three requests and two replies", workers, n)
		}
	}
}

// TestConfinedErrors checks that the server-side service lookup and the
// down-host reset surface the same sentinel errors as the inline path.
func TestConfinedErrors(t *testing.T) {
	s := sim.New(1)
	s.SetLookahead(time.Millisecond)
	net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7})
	tr := NewTransport(s, net, DefaultParams())
	tr.Register(1)
	tr.Register(2)
	if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
		t.Fatal(err)
	}
	var noSvc, noHost error
	s.SpawnOn(1, "caller", func(env *sim.Env) error {
		_, noSvc = tr.Endpoint(1).Call(env, 2, "missing", nil, 8)
		_, noHost = tr.Endpoint(1).Call(env, 9, "missing", nil, 8)
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(noSvc, ErrNoService) {
		t.Fatalf("missing service: %v", noSvc)
	}
	if !errors.Is(noHost, ErrNoHost) {
		t.Fatalf("missing host: %v", noHost)
	}
}

// TestConfinedEpochAndHints checks the reply piggybacks survive the mailbox
// hop: the epoch observer and hint observer fire client-side with the values
// captured at handler execution.
func TestConfinedEpochAndHints(t *testing.T) {
	s := sim.New(1)
	s.SetLookahead(time.Millisecond)
	net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7})
	tr := NewTransport(s, net, DefaultParams())
	tr.Register(1)
	srv := tr.Register(2)
	srv.Handle("ping", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return "pong", 8, nil
	})
	srv.SetHintProvider(func() (any, int) { return "hint-payload", 12 })
	var seenEpoch Epoch
	var seenHint any
	tr.SetEpochObserver(func(h HostID, e Epoch) {
		if h == 2 {
			seenEpoch = e
		}
	})
	tr.SetHintObserver(func(caller, server HostID, payload any) { seenHint = payload })
	srv.Restart() // epoch 2
	if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
		t.Fatal(err)
	}
	s.SpawnOn(1, "caller", func(env *sim.Env) error {
		_, err := tr.Endpoint(1).Call(env, 2, "ping", nil, 8)
		return err
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if seenEpoch != 2 {
		t.Fatalf("epoch piggyback: got %d, want 2", seenEpoch)
	}
	if seenHint != "hint-payload" {
		t.Fatalf("hint piggyback: got %v", seenHint)
	}
}

// TestConfinedBulkEquivalence runs bulk transfers in both directions across
// confined hosts and pins serial/parallel byte-identity.
func TestConfinedBulkEquivalence(t *testing.T) {
	run := func(workers int) confFP {
		const latency = time.Millisecond
		s := sim.New(3)
		s.SetLookahead(latency)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		net := netsim.New(s, netsim.Params{Latency: latency, BandwidthBytesPerSec: 1e7})
		tr := NewTransport(s, net, DefaultParams())
		hosts := 4
		for i := 1; i <= hosts; i++ {
			host := HostID(i)
			tr.Register(host).Handle("xfer", func(env *sim.Env, from HostID, arg any) (any, int, error) {
				n := arg.(int)
				if err := env.Sleep(300 * time.Microsecond); err != nil {
					return nil, 0, err
				}
				return n + 1, 40 << 10, nil
			})
		}
		if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
			t.Fatal(err)
		}
		logs := make([]string, hosts+1)
		for i := 1; i <= hosts; i++ {
			host := HostID(i)
			s.SpawnOn(int(host), fmt.Sprintf("bulk-%v", host), func(env *sim.Env) error {
				var b strings.Builder
				to := HostID(int(host)%hosts + 1)
				for c := 0; c < 3; c++ {
					dir := BulkOut
					if c%2 == 1 {
						dir = BulkIn
					}
					v, bs, err := tr.Endpoint(host).CallBulk(env, to, "xfer", c, 128, 100<<10, dir)
					fmt.Fprintf(&b, "%v->%v c%d v=%v frags=%d bytes=%d err=%v @%d\n",
						host, to, c, v, bs.Fragments, bs.Bytes, err, env.Now()/time.Microsecond)
				}
				logs[int(host)] = b.String()
				return nil
			})
		}
		err := s.Run(0)
		fp := confFP{
			digest:   s.OrderDigest(),
			now:      s.Now(),
			replies:  strings.Join(logs, ""),
			calls:    tr.Totals().Calls,
			messages: net.Messages(),
			bytes:    net.Bytes(),
		}
		if err != nil {
			fp.runErr = err.Error()
		}
		return fp
	}
	serial := run(0)
	if serial.runErr != "" {
		t.Fatalf("serial run: %v", serial.runErr)
	}
	for _, workers := range []int{1, 2, 4} {
		if got := run(workers); got != serial {
			t.Fatalf("workers %d diverged:\nserial: %v\npar:    %v", workers, serial, got)
		}
	}
}

// TestConfinedBroadcastPanics pins the confinement contract: broadcasts read
// every host's state inline and are exclusive-only once hosts are confined.
func TestConfinedBroadcastPanics(t *testing.T) {
	s := sim.New(1)
	s.SetLookahead(time.Millisecond)
	net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7})
	tr := NewTransport(s, net, DefaultParams())
	tr.Register(1)
	tr.Register(2)
	if err := tr.ConfineHosts(func(h HostID) int { return int(h) }); err != nil {
		t.Fatal(err)
	}
	panicked := false
	s.SpawnOn(1, "caster", func(env *sim.Env) error {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		_, _ = NewService[any, any]("svc").Broadcast(tr.Endpoint(1), env, nil, 8)
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("Broadcast from a confined activity should panic")
	}
}

// TestConfinedRPCStorm saturates a confined fabric with concurrent
// cross-host traffic — every host calling every other, with faults — and
// checks serial/parallel identity. Run under -race this doubles as the
// data-race probe for the whole confined call path.
func TestConfinedRPCStorm(t *testing.T) {
	serial := runConfinedFabric(t, 99, 12, 20, 0, true)
	for _, workers := range []int{2, 4, 8} {
		if got := runConfinedFabric(t, 99, 12, 20, workers, true); got != serial {
			t.Fatalf("storm workers %d diverged:\nserial: %v\npar:    %v", workers, serial, got)
		}
	}
}

// TestConfineHostsRefusals: a contended network, and a lookahead outside
// (0, latency], are refused with an error that leaves the transport as it
// was, so the same transport confines once its lookahead is fixed.
func TestConfineHostsRefusals(t *testing.T) {
	shardOf := func(h HostID) int { return int(h) }
	for _, c := range []struct {
		name      string
		contended bool
		lookahead time.Duration
	}{
		{"contended", true, time.Millisecond},
		{"no lookahead", false, 0},
		{"lookahead past latency", false, 2 * time.Millisecond},
	} {
		s := sim.New(1)
		s.SetLookahead(c.lookahead)
		net := netsim.New(s, netsim.Params{Latency: time.Millisecond, BandwidthBytesPerSec: 1e7, Contended: c.contended})
		tr := NewTransport(s, net, DefaultParams())
		tr.Register(1)
		tr.Register(2)
		if err := tr.ConfineHosts(shardOf); err == nil || tr.Confined() {
			t.Errorf("%s: ConfineHosts err = %v, confined = %t; want a refusal that changes nothing", c.name, err, tr.Confined())
			continue
		}
		if c.contended {
			continue
		}
		s.SetLookahead(time.Millisecond)
		if err := tr.ConfineHosts(shardOf); err != nil || !tr.Confined() {
			t.Errorf("%s: after the refusal, ConfineHosts err = %v, confined = %t; want a confined transport", c.name, err, tr.Confined())
		}
	}
}
