package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Tests for the per-host confinement primitives: shard-homed mailboxes
// (deliveries dispatched inside windows by the owning worker), the
// delay == lookahead window-boundary case, Env.Rehome, and daemon service
// loops. Every equivalence test runs the same program under the serial
// oracle and the parallel kernel at several worker counts and requires the
// full fingerprint — digest, stats, trace, clock — to be byte-identical.

// runHomedProg exercises the RPC shape: every shard owns a request mailbox
// homed to it, a daemon server loop drains it, and client activities on
// other shards send requests and block on per-call reply mailboxes homed to
// their own shard. All sends use delay >= lookahead; some use exactly
// lookahead, which lands exactly on the window horizon.
func runHomedProg(seed int64, shards, workers int, lookahead time.Duration) kernelFP {
	s := New(seed)
	s.SetLookahead(lookahead)
	if workers > 0 {
		s.ConfigureParallel(workers)
	}
	var traceB strings.Builder
	recordTrace(s, &traceB)

	// Per-shard request mailboxes, homed to their shard.
	boxes := make([]*Mailbox, shards+1)
	for sh := 1; sh <= shards; sh++ {
		boxes[sh] = NewMailboxOn(s, sh, lookahead)
	}
	type req struct {
		from  int
		reply *Mailbox
		step  int
	}
	// Server daemon per shard: replies after a small shard-local service
	// time, with the reply delayed by exactly lookahead plus a deterministic
	// size-dependent extra.
	for sh := 1; sh <= shards; sh++ {
		shard := sh
		s.SpawnOn(shard, fmt.Sprintf("server-%d", shard), func(env *Env) error {
			env.MarkDaemon()
			for {
				v, err := boxes[shard].Recv(env)
				if err != nil {
					return nil
				}
				rq := v.(req)
				if err := env.Sleep(time.Duration(rq.step%3) * 100 * time.Microsecond); err != nil {
					return nil
				}
				extra := time.Duration(rq.step%2) * 50 * time.Microsecond
				rq.reply.SendAfter(env, fmt.Sprintf("ok-%d-%d", shard, rq.step), lookahead+extra)
			}
		})
	}
	// Client per shard: calls the next shard around the ring. Half the
	// requests travel with delay exactly == lookahead (the boundary case).
	for sh := 1; sh <= shards; sh++ {
		shard := sh
		s.SpawnOn(shard, fmt.Sprintf("client-%d", shard), func(env *Env) error {
			r := env.LocalRand()
			reply := NewMailboxOn(s, shard, lookahead)
			for step := 0; step < 25; step++ {
				target := shard%shards + 1
				delay := lookahead
				if step%2 == 1 {
					delay += time.Duration(r.Intn(400)) * time.Microsecond
				}
				boxes[target].SendAfter(env, req{from: shard, reply: reply, step: step}, delay)
				v, err := reply.Recv(env)
				if err != nil {
					return nil
				}
				note(env, "reply", fmt.Sprintf("%s got %v", env.Name(), v))
				if err := env.Sleep(time.Duration(r.Intn(900)) * time.Microsecond); err != nil {
					return nil
				}
			}
			return nil
		})
	}
	// An exclusive ticker so shard-0 blockers interleave with windows.
	s.Spawn("ticker", func(env *Env) error {
		for i := 0; i < 10; i++ {
			if err := env.Sleep(3 * time.Millisecond); err != nil {
				return nil
			}
		}
		return nil
	})

	err := s.Run(0)
	fp := kernelFP{digest: s.OrderDigest(), stats: s.Stats(), now: s.Now()}
	if err != nil {
		fp.runErr = err.Error()
	}
	fp.trace = traceB.String()
	if s.LiveActivities() != 0 {
		fp.errs = fmt.Sprintf("leaked %d activities", s.LiveActivities())
	}
	return fp
}

func TestShardHomedMailboxEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		want := runHomedProg(seed, 6, 0, 500*time.Microsecond)
		if want.runErr != "" || want.errs != "" {
			t.Fatalf("seed %d serial run unhealthy: %v", seed, want)
		}
		for _, w := range []int{1, 2, 4, 8} {
			got := runHomedProg(seed, 6, w, 500*time.Microsecond)
			if got != want {
				t.Fatalf("seed %d workers=%d diverged:\nserial: %v\nparallel: %v", seed, w, want, got)
			}
		}
	}
}

// TestMailboxBoundaryDelayEqualsLookahead pins the window-boundary case: a
// send whose delay is exactly the lookahead lands exactly on the horizon of
// the window that issued it, so it must be excluded from that window and
// committed in the next one — in the same (time, seq) position the serial
// kernel gives it. Two shards ping-pong at exactly lookahead spacing, so
// every delivery in the run sits on a boundary.
func TestMailboxBoundaryDelayEqualsLookahead(t *testing.T) {
	const la = 500 * time.Microsecond
	run := func(workers int) kernelFP {
		s := New(11)
		s.SetLookahead(la)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		var traceB strings.Builder
		recordTrace(s, &traceB)
		a := NewMailboxOn(s, 1, la)
		b := NewMailboxOn(s, 2, la)
		s.SpawnOn(1, "ping", func(env *Env) error {
			for i := 0; i < 40; i++ {
				b.Send(env, i) // delay == lookahead exactly
				v, err := a.Recv(env)
				if err != nil {
					return nil
				}
				note(env, "pong", fmt.Sprintf("%v@%d", v, env.Now()/time.Microsecond))
			}
			return nil
		})
		s.SpawnOn(2, "pong", func(env *Env) error {
			env.MarkDaemon()
			for {
				v, err := b.Recv(env)
				if err != nil {
					return nil
				}
				a.Send(env, v) // delay == lookahead exactly
			}
		})
		err := s.Run(0)
		fp := kernelFP{digest: s.OrderDigest(), stats: s.Stats(), now: s.Now()}
		if err != nil {
			fp.runErr = err.Error()
		}
		fp.trace = traceB.String()
		if s.LiveActivities() != 0 {
			fp.errs = fmt.Sprintf("leaked %d activities", s.LiveActivities())
		}
		return fp
	}
	want := run(0)
	if want.runErr != "" || want.errs != "" {
		t.Fatalf("serial run unhealthy: %v", want)
	}
	// 40 round trips at exactly 2*lookahead each.
	if want.now != 40*2*la {
		t.Fatalf("boundary timing wrong: now=%v want %v", want.now, 40*2*la)
	}
	for _, w := range []int{1, 2, 4, 8} {
		got := run(w)
		if got != want {
			t.Fatalf("workers=%d diverged at the delay==lookahead boundary:\nserial: %v\nparallel: %v", w, want, got)
		}
	}
}

// runRehomeProg: activities hop between shards with Env.Rehome, doing
// shard-local work (LocalRand sleeps, child spawns, trace emissions) at each
// stop. A hop's wake must commit on the new shard in the serial position.
// The ring includes exclusive shard 0, so under the parallel kernel a
// hopper is resumed by the coordinator as well as by different workers.
func runRehomeProg(seed int64, shards, workers int, lookahead time.Duration) kernelFP {
	s := New(seed)
	s.SetLookahead(lookahead)
	if workers > 0 {
		s.ConfigureParallel(workers)
	}
	var traceB strings.Builder
	recordTrace(s, &traceB)
	// Resident daemon per shard so every shard has local activity the
	// hoppers interleave with.
	for sh := 1; sh <= shards; sh++ {
		shard := sh
		s.SpawnOn(shard, fmt.Sprintf("resident-%d", shard), func(env *Env) error {
			r := env.LocalRand()
			for i := 0; i < 30; i++ {
				if err := env.Sleep(time.Duration(r.Intn(1500)+1) * time.Microsecond); err != nil {
					return nil
				}
			}
			return nil
		})
	}
	for h := 0; h < shards; h++ {
		start := h%shards + 1
		s.SpawnOn(start, fmt.Sprintf("hopper-%d", h), func(env *Env) error {
			r := env.LocalRand()
			for hop := 0; hop < 12; hop++ {
				if err := env.Sleep(time.Duration(r.Intn(800)) * time.Microsecond); err != nil {
					return nil
				}
				note(env, "at", fmt.Sprintf("%s shard=%d hop=%d", env.Name(), env.Shard(), hop))
				// A short-lived child on the current shard.
				f := NewFuture()
				env.Spawn(fmt.Sprintf("%s-child-%d", env.Name(), hop), func(c *Env) error {
					f.Complete(c, hop, nil)
					return nil
				})
				if _, err := f.Wait(env); err != nil {
					return nil
				}
				next := (env.Shard() + 1) % (shards + 1)
				if err := env.Rehome(next, lookahead+time.Duration(hop%3)*100*time.Microsecond); err != nil {
					return nil
				}
			}
			return nil
		})
	}
	err := s.Run(0)
	fp := kernelFP{digest: s.OrderDigest(), stats: s.Stats(), now: s.Now()}
	if err != nil {
		fp.runErr = err.Error()
	}
	fp.trace = traceB.String()
	if s.LiveActivities() != 0 {
		fp.errs = fmt.Sprintf("leaked %d activities", s.LiveActivities())
	}
	return fp
}

func TestRehomeEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 19} {
		want := runRehomeProg(seed, 5, 0, 500*time.Microsecond)
		if want.runErr != "" || want.errs != "" {
			t.Fatalf("seed %d serial run unhealthy: %v", seed, want)
		}
		for _, w := range []int{1, 2, 4, 8} {
			got := runRehomeProg(seed, 5, w, 500*time.Microsecond)
			if got != want {
				t.Fatalf("seed %d workers=%d diverged:\nserial: %v\nparallel: %v", seed, w, want, got)
			}
		}
	}
}

func TestRehomeChangesShardAndLocalState(t *testing.T) {
	s := New(1)
	s.SetLookahead(time.Millisecond)
	var sawShard int
	s.SpawnOn(1, "mover", func(env *Env) error {
		if err := env.Rehome(7, time.Millisecond); err != nil {
			return err
		}
		sawShard = env.Shard()
		// Children spawned after the move belong to the new shard.
		env.Spawn("child", func(c *Env) error {
			if c.Shard() != 7 {
				return fmt.Errorf("child on shard %d, want 7", c.Shard())
			}
			return nil
		})
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if sawShard != 7 {
		t.Fatalf("after Rehome shard=%d, want 7", sawShard)
	}
}

func TestRehomeBelowLookaheadPanics(t *testing.T) {
	for _, workers := range []int{0, 2} {
		s := New(1)
		s.SetLookahead(time.Millisecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		s.SpawnOn(1, "mover", func(env *Env) error {
			return env.Rehome(2, 100*time.Microsecond)
		})
		err := s.Run(0)
		if err == nil || !strings.Contains(err.Error(), "below lookahead") {
			t.Fatalf("workers=%d: want below-lookahead panic, got %v", workers, err)
		}
	}
}

func TestDaemonQuiesce(t *testing.T) {
	for _, workers := range []int{0, 4} {
		s := New(1)
		s.SetLookahead(500 * time.Microsecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		box := NewMailboxOn(s, 1, 500*time.Microsecond)
		got := 0
		s.SpawnOn(1, "dispatcher", func(env *Env) error {
			env.MarkDaemon()
			for {
				if _, err := box.Recv(env); err != nil {
					return nil
				}
				got++
			}
		})
		s.SpawnOn(2, "sender", func(env *Env) error {
			for i := 0; i < 5; i++ {
				box.Send(env, i)
				if err := env.Sleep(time.Millisecond); err != nil {
					return nil
				}
			}
			return nil
		})
		if err := s.Run(0); err != nil {
			t.Fatalf("workers=%d: run with daemons should quiesce cleanly, got %v", workers, err)
		}
		if got != 5 {
			t.Fatalf("workers=%d: daemon consumed %d messages, want 5", workers, got)
		}
		if s.LiveActivities() != 0 {
			t.Fatalf("workers=%d: leaked %d activities", workers, s.LiveActivities())
		}
	}
}

func TestShardHomedMailboxForeignRecvPanics(t *testing.T) {
	s := New(1)
	s.SetLookahead(time.Millisecond)
	box := NewMailboxOn(s, 2, time.Millisecond)
	s.SpawnOn(1, "wrong", func(env *Env) error {
		_, err := box.Recv(env)
		return err
	})
	err := s.Run(0)
	if err == nil || !strings.Contains(err.Error(), "homed to shard") {
		t.Fatalf("want foreign-recv panic, got %v", err)
	}
}
