package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sprite/internal/trace"
)

// ---------------------------------------------------------------------------
// Equivalence harness: run one deterministic confined-shard program under a
// kernel configuration and fingerprint everything observable — committed
// order digest, scheduler stats, trace bytes, errors, the clock, and the
// messages the exclusive supervisor collected from the shards' mailboxes.
// ---------------------------------------------------------------------------

type kernelFP struct {
	digest uint64
	stats  Stats
	trace  string
	errs   string
	now    time.Duration
	inbox  string
	runErr string
}

func (fp kernelFP) String() string {
	return fmt.Sprintf("digest=%016x stats=%+v now=%v runErr=%q\nerrs=%q\ninbox=%q\ntrace=%q",
		fp.digest, fp.stats, fp.now, fp.runErr, fp.errs, fp.inbox, fp.trace)
}

type progCfg struct {
	seed      int64
	shards    int
	daemons   int // daemons per shard
	lookahead time.Duration
	limit     time.Duration
	// slices, when > 0, advances the run to limit in that many Run calls
	// of equal length instead of one.
	slices int
	// regime, when named, is applied to the parallel kernel.
	regime regimeCase
}

// confinedProg builds a workload exercising every confined-contract
// primitive: LocalRand-paced sleeps, same-shard spawns that terminate,
// same-shard Queue/Future/Resource handoffs, trace emission, and
// cross-shard mailbox sends into an exclusive supervisor that itself wakes
// periodically (so exclusive blockers interleave with parallel windows).
func runConfinedProg(cfg progCfg, workers int) kernelFP {
	s, traceB := newProgSim(cfg, workers)

	mbox := NewMailbox(s, cfg.lookahead+time.Millisecond)
	var inboxB strings.Builder

	// Exclusive supervisor: drains the mailbox, and its periodic wakeups act
	// as shard-0 blockers that bound every window.
	s.Spawn("supervisor", func(env *Env) error {
		for {
			v, err := mbox.Recv(env)
			if err != nil {
				return nil
			}
			fmt.Fprintf(&inboxB, "%v\n", v)
		}
	})
	s.Spawn("ticker", func(env *Env) error {
		for i := 0; i < 20; i++ {
			if err := env.Sleep(7 * time.Millisecond); err != nil {
				return nil
			}
		}
		return nil
	})

	for sh := 1; sh <= cfg.shards; sh++ {
		shard := sh
		// Shard-local plumbing shared by this shard's daemons.
		q := NewQueue(s)
		res := NewResource(s, 1)
		for d := 0; d < cfg.daemons; d++ {
			di := d
			s.SpawnOn(shard, fmt.Sprintf("daemon-%d-%d", shard, di), func(env *Env) error {
				r := env.LocalRand()
				for step := 0; ; step++ {
					if err := env.Sleep(time.Duration(r.Intn(2000)+1) * time.Microsecond); err != nil {
						return nil
					}
					switch r.Intn(6) {
					case 0:
						note(env, "tick", fmt.Sprintf("%s step=%d", env.Name(), step))
					case 1:
						q.Send(fmt.Sprintf("%s-%d", env.Name(), step))
					case 2:
						if q.Len() > 0 {
							if v, err := q.Recv(env); err == nil {
								note(env, "recv", fmt.Sprintf("%v", v))
							} else {
								return nil
							}
						}
					case 3:
						if err := res.Use(env, time.Duration(r.Intn(500))*time.Microsecond); err != nil {
							return nil
						}
					case 4:
						mbox.Send(env, fmt.Sprintf("%s@%d", env.Name(), env.Now()/time.Microsecond))
					case 5:
						// Short-lived same-shard child joined through a Future.
						f := NewFuture()
						env.Spawn(fmt.Sprintf("%s-child-%d", env.Name(), step), func(c *Env) error {
							if err := c.Sleep(time.Duration(c.LocalRand().Intn(300)) * time.Microsecond); err != nil {
								return err
							}
							f.Complete(c, step, nil)
							return nil
						})
						if _, err := f.Wait(env); err != nil {
							return nil
						}
					}
				}
			})
		}
	}

	fp := runProg(s, cfg, traceB)
	fp.inbox = inboxB.String()
	return fp
}

// newProgSim builds the simulation an equivalence program runs on: seeded
// and with the lookahead from cfg, on the serial kernel (workers 0) or the
// parallel one, with a trace sink that writes into the returned builder.
func newProgSim(cfg progCfg, workers int) (*Simulation, *strings.Builder) {
	s := New(cfg.seed)
	s.SetLookahead(cfg.lookahead)
	if workers > 0 {
		s.ConfigureParallel(workers)
		if cfg.regime.name != "" {
			cfg.regime.apply(s)
		}
	}
	traceB := new(strings.Builder)
	recordTrace(s, traceB)
	return s, traceB
}

// note emits a test observation. The kernel carries events without reading
// them, so its tests keep theirs in the event's Name.
func note(env *Env, kind, detail string) { env.Emit(trace.Event{Name: kind + " " + detail}) }

// recordTrace installs a sink that writes each observation to b with its
// virtual time.
func recordTrace(s *Simulation, b *strings.Builder) {
	s.SetTraceSink(func(ev trace.Event) { fmt.Fprintf(b, "%d %s\n", ev.At, ev.Name) })
}

// runProg runs s to cfg.limit and fingerprints it. With cfg.slices set it
// runs in that many Run calls and checks after each that no helper
// goroutine outlived it (liveHelpers reads every goroutine's stack, which
// is too slow for every run). It then stops s and drains it, so every
// activity finishes and completion errors are collected in the same
// deterministic order under both kernels, before it reads the trace.
func runProg(s *Simulation, cfg progCfg, traceB *strings.Builder) kernelFP {
	var fp kernelFP
	slices := max(cfg.slices, 1)
	for i := 1; i <= slices; i++ {
		err := s.Run(cfg.limit * time.Duration(i) / time.Duration(slices))
		if err != nil && fp.runErr == "" {
			fp.runErr = err.Error()
		}
		if cfg.slices == 0 {
			continue
		}
		if n := liveHelpers(); n > 0 && fp.errs == "" {
			fp.errs = fmt.Sprintf("%d helper goroutines outlived Run %d", n, i)
		}
	}
	fp.digest, fp.stats, fp.now = s.OrderDigest(), s.Stats(), s.Now()
	s.Stop()
	_ = s.Run(0)
	fp.trace = traceB.String()
	if s.LiveActivities() != 0 {
		fp.errs += fmt.Sprintf("leaked %d activities", s.LiveActivities())
	}
	return fp
}

// errPoke is what the cancel-heavy program's pokers interrupt with.
var errPoke = errors.New("poke")

// runCancelProg is the timer-cancel-heavy counterpart of runConfinedProg.
// Nearly every timer it arms is cancelled before it fires: shard-homed
// mailboxes received with RecvTimeout while deliveries race the deadline,
// long sleeps cut short by same-shard Interrupts, futures raced by their own
// WaitTimeout, and nomads that Rehome to another shard mid-window and post
// to its mailbox on arrival. Under the parallel kernel those timers are
// pooled events reached through activity.wake, and a rehoming wake is drawn
// from one worker's pool and consumed on another's — so an event recycled
// while still referenced, or by the wrong owner, shows as a fingerprint
// mismatch here or as a report under -race.
func runCancelProg(cfg progCfg, workers int) kernelFP {
	s, traceB := newProgSim(cfg, workers)
	us := func(r interface{ Intn(int) int }, n int) time.Duration {
		return time.Duration(r.Intn(n)+1) * time.Microsecond
	}
	// outcome logs how a blocking call ended and says whether to go on.
	outcome := func(env *Env, what string, err error) bool {
		switch {
		case err == nil:
			note(env, what, env.Name())
		case errors.Is(err, ErrTimeout):
			note(env, what+".timeout", env.Name())
		case errors.Is(err, errPoke):
			note(env, what+".poked", env.Name())
		default:
			return false // ErrStopped: unwinding
		}
		return true
	}

	boxes := make([]*Mailbox, cfg.shards+1)
	for sh := 1; sh <= cfg.shards; sh++ {
		boxes[sh] = NewMailboxOn(s, sh, cfg.lookahead+50*time.Microsecond)
	}
	for sh := 1; sh <= cfg.shards; sh++ {
		box := boxes[sh]
		receiver := s.SpawnOn(sh, fmt.Sprintf("recv-%d", sh), func(env *Env) error {
			r := env.LocalRand()
			for {
				v, err := box.RecvTimeout(env, us(r, 400))
				if err == nil {
					note(env, "mail", fmt.Sprint(v))
				}
				if !outcome(env, "recv", err) {
					return nil
				}
			}
		})
		sleeper := s.SpawnOn(sh, fmt.Sprintf("sleeper-%d", sh), func(env *Env) error {
			r := env.LocalRand()
			for outcome(env, "sleep", env.Sleep(us(r, 3000))) {
			}
			return nil
		})
		for d := 0; d < cfg.daemons; d++ {
			s.SpawnOn(sh, fmt.Sprintf("poker-%d-%d", sh, d), func(env *Env) error {
				r := env.LocalRand()
				for step := 0; ; step++ {
					if err := env.Sleep(us(r, 500)); err != nil {
						return nil
					}
					switch r.Intn(4) {
					case 0:
						receiver.Interrupt(errPoke)
					case 1:
						sleeper.Interrupt(errPoke)
					case 2:
						to := 1 + r.Intn(cfg.shards)
						boxes[to].SendAfter(env, fmt.Sprintf("%s#%d", env.Name(), step), cfg.lookahead+us(r, 300))
					case 3:
						f := NewFuture()
						env.Spawn(fmt.Sprintf("%s-child-%d", env.Name(), step), func(c *Env) error {
							if err := c.Sleep(us(c.LocalRand(), 300)); err != nil {
								return err
							}
							f.Complete(c, step, nil)
							return nil
						})
						_, err := f.WaitTimeout(env, us(r, 300))
						if !outcome(env, "future", err) {
							return nil
						}
					}
				}
			})
		}
	}
	for n := 0; n < 2; n++ {
		s.SpawnOn(1+n%cfg.shards, fmt.Sprintf("nomad-%d", n), func(env *Env) error {
			r := env.LocalRand()
			for hop := 0; ; hop++ {
				if err := env.Sleep(us(r, 300)); err != nil {
					return nil
				}
				next := 1 + r.Intn(cfg.shards)
				if err := env.Rehome(next, cfg.lookahead+us(r, 200)); err != nil {
					return nil
				}
				note(env, "hop", fmt.Sprintf("%s hop=%d shard=%d", env.Name(), hop, env.Shard()))
				boxes[next].Send(env, fmt.Sprintf("%s@%d", env.Name(), hop))
			}
		})
	}

	return runProg(s, cfg, traceB)
}

// runLoneSleeperProg is one exclusive activity sleeping alone, with no
// shards at all. On the serial kernel each of its wakes that is the next
// event commits in place (sleepInPlace), Yields included; the parallel
// kernel schedules and dispatches every one. The sleeper also queues
// callbacks due past the run limit, so the queue it commits past keeps
// growing and each in-place commit sets MaxQueueDepth; it stops well before
// the limit, so no scheduled wake sets it instead. Stats and the order
// digest must not tell the kernels apart.
func runLoneSleeperProg(cfg progCfg, workers int) kernelFP {
	s, traceB := newProgSim(cfg, workers)
	s.Spawn("sleeper", func(env *Env) error {
		r := env.Rand()
		for step := 0; env.Now() < cfg.limit/2; step++ {
			if step%8 == 0 {
				s.After(cfg.limit, func() {})
			}
			if err := env.Sleep(time.Duration(r.Intn(4)*r.Intn(1000)) * time.Microsecond); err != nil {
				return nil
			}
			note(env, "tick", fmt.Sprint(step))
		}
		return nil
	})
	return runProg(s, cfg, traceB)
}

func TestParallelMatchesSerialAcrossWorkerCounts(t *testing.T) {
	cfg := progCfg{
		seed:      42,
		shards:    7,
		daemons:   3,
		lookahead: 500 * time.Microsecond,
		limit:     120 * time.Millisecond,
	}
	want := runConfinedProg(cfg, 0) // serial oracle
	if want.runErr != "" {
		t.Fatalf("serial run failed: %v", want.runErr)
	}
	if want.stats.EventsDispatched == 0 || !strings.Contains(want.trace, "tick") {
		t.Fatalf("oracle did no work: %v", want)
	}
	for _, rc := range regimeCases {
		cfg.regime = rc
		for _, workers := range []int{1, 2, 4, 8} {
			got := runConfinedProg(cfg, workers)
			if got != want {
				t.Errorf("%s workers=%d diverged from serial:\n got: %v\nwant: %v", rc.name, workers, got, want)
			}
		}
	}
}

func TestParallelEquivalenceProperty(t *testing.T) {
	// Quick-style sweep: many seeds and shapes, each compared across all
	// worker counts under every dispatch regime. Shapes are derived from the
	// seed so the corpus drifts as seeds grow.
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for i := 0; i < seeds; i++ {
		cfg := progCfg{
			seed:      int64(1000 + i*7919),
			shards:    1 + i%9,
			daemons:   1 + i%4,
			lookahead: time.Duration(i%5) * 200 * time.Microsecond,
			limit:     time.Duration(20+i%40) * time.Millisecond,
		}
		for _, p := range []struct {
			name string
			run  func(progCfg, int) kernelFP
		}{{"confined", runConfinedProg}, {"cancel-heavy", runCancelProg}, {"lone-sleeper", runLoneSleeperProg}} {
			name, prog := p.name, p.run
			want := prog(cfg, 0)
			if want.runErr != "" || want.errs != "" {
				t.Fatalf("%s seed=%d: serial oracle failed: %v", name, cfg.seed, want)
			}
			for _, rc := range regimeCases {
				cfg.regime = rc
				for _, workers := range []int{1, 2, 4, 8} {
					got := prog(cfg, workers)
					if got != want {
						t.Fatalf("%s seed=%d shards=%d daemons=%d lookahead=%v %s workers=%d diverged:\n got: %v\nwant: %v",
							name, cfg.seed, cfg.shards, cfg.daemons, cfg.lookahead, rc.name, workers, got, want)
					}
				}
			}
		}
	}
}

// TestCancelProgCancels guards the cancel-heavy program against going
// quiet: every race it is built around must actually go both ways.
func TestCancelProgCancels(t *testing.T) {
	fp := runCancelProg(progCfg{seed: 42, shards: 5, daemons: 2, lookahead: 400 * time.Microsecond, limit: 40 * time.Millisecond}, 2)
	for _, kind := range []string{
		" mail ", " recv.timeout ", " recv.poked ", " sleep.poked ",
		" future ", " future.timeout ", " hop ",
	} {
		if !strings.Contains(fp.trace, kind) {
			t.Errorf("cancel-heavy program never produced a%sevent", kind)
		}
	}
}

// TestZeroLookaheadLockstep pins the horizon-collapse edge case: with a
// zero-latency link the lookahead is zero, every window degenerates to a
// single event (lockstep), and the parallel kernel must still match the
// serial one bit for bit rather than deadlock or reorder.
func TestZeroLookaheadLockstep(t *testing.T) {
	cfg := progCfg{
		seed:      7,
		shards:    5,
		daemons:   2,
		lookahead: 0,
		limit:     30 * time.Millisecond,
	}
	want := runConfinedProg(cfg, 0)
	for _, workers := range []int{1, 4} {
		got := runConfinedProg(cfg, workers)
		if got != want {
			t.Fatalf("lockstep workers=%d diverged:\n got: %v\nwant: %v", workers, got, want)
		}
	}
}

// TestLockstepGolden freezes the zero-lookahead committed order digest so a
// future change to window formation cannot silently shift the fallback
// path's schedule.
func TestLockstepGolden(t *testing.T) {
	cfg := progCfg{seed: 7, shards: 5, daemons: 2, lookahead: 0, limit: 30 * time.Millisecond}
	serial := runConfinedProg(cfg, 0)
	parallel := runConfinedProg(cfg, 4)
	const wantDigest uint64 = 0xa921a4ed8ee07774
	if serial.digest != wantDigest {
		t.Errorf("serial lockstep digest changed: got %#x want %#x", serial.digest, wantDigest)
	}
	if parallel.digest != wantDigest {
		t.Errorf("parallel lockstep digest changed: got %#x want %#x", parallel.digest, wantDigest)
	}
}

func TestConfinedContractGuards(t *testing.T) {
	t.Run("EnvRandPanicsOnConfined", func(t *testing.T) {
		s := New(1)
		var got error
		s.SpawnOn(1, "confined", func(env *Env) error {
			env.Rand()
			return nil
		})
		if err := s.Run(0); err != nil {
			got = err
		}
		if got == nil || !strings.Contains(got.Error(), "LocalRand") {
			t.Fatalf("want LocalRand guard panic, got %v", got)
		}
	})
	t.Run("CrossShardSpawnPanics", func(t *testing.T) {
		s := New(1)
		s.SpawnOn(1, "confined", func(env *Env) error {
			env.SpawnOn(2, "other", func(*Env) error { return nil })
			return nil
		})
		err := s.Run(0)
		if err == nil || !strings.Contains(err.Error(), "foreign shard") {
			t.Fatalf("want foreign-shard panic, got %v", err)
		}
	})
	t.Run("CrossShardWakePanicsUnderSerialOracle", func(t *testing.T) {
		s := New(1)
		q := NewQueue(s)
		s.SpawnOn(1, "receiver", func(env *Env) error {
			_, err := q.Recv(env)
			return err
		})
		s.SpawnOn(2, "sender", func(env *Env) error {
			if err := env.Sleep(time.Millisecond); err != nil {
				return err
			}
			q.Send("x") // same-instant wake across shards: contract violation
			return nil
		})
		err := s.Run(0)
		if err == nil || !strings.Contains(err.Error(), "Mailbox") {
			t.Fatalf("want cross-shard wake panic under serial oracle, got %v", err)
		}
	})
	t.Run("MailboxDelayBelowLookaheadPanics", func(t *testing.T) {
		s := New(1)
		s.SetLookahead(time.Millisecond)
		m := NewMailbox(s, 100*time.Microsecond)
		s.SpawnOn(1, "sender", func(env *Env) error {
			m.Send(env, "too fast")
			return nil
		})
		err := s.Run(0)
		if err == nil || !strings.Contains(err.Error(), "lookahead") {
			t.Fatalf("want lookahead contract panic, got %v", err)
		}
	})
	t.Run("SimulationPrimitivesGuardedOnConfined", func(t *testing.T) {
		s := New(1)
		s.SpawnOn(1, "confined", func(env *Env) error {
			env.Sim().Spawn("nope", func(*Env) error { return nil })
			return nil
		})
		err := s.Run(0)
		if err == nil || !strings.Contains(err.Error(), "must use their Env") {
			t.Fatalf("want exclusive-only guard, got %v", err)
		}
	})
}

// TestMailboxCrossShard checks ordered cross-shard delivery: two confined
// producers on different shards feed one exclusive consumer; arrival order
// is a pure function of (time, seq) and identical under both kernels.
func TestMailboxCrossShard(t *testing.T) {
	run := func(workers int) string {
		s := New(11)
		s.SetLookahead(300 * time.Microsecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		m := NewMailbox(s, 400*time.Microsecond)
		var got strings.Builder
		s.Spawn("consumer", func(env *Env) error {
			for i := 0; i < 20; i++ {
				v, err := m.Recv(env)
				if err != nil {
					return err
				}
				fmt.Fprintf(&got, "%v;", v)
			}
			return nil
		})
		for sh := 1; sh <= 2; sh++ {
			shard := sh
			s.SpawnOn(shard, fmt.Sprintf("producer-%d", shard), func(env *Env) error {
				r := env.LocalRand()
				for i := 0; i < 10; i++ {
					if err := env.Sleep(time.Duration(r.Intn(900)+100) * time.Microsecond); err != nil {
						return err
					}
					m.Send(env, fmt.Sprintf("s%d-%d@%d", shard, i, env.Now()/time.Microsecond))
				}
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return got.String()
	}
	want := run(0)
	if !strings.Contains(want, "s1-0@") || !strings.Contains(want, "s2-0@") {
		t.Fatalf("degenerate mailbox run: %q", want)
	}
	for _, workers := range []int{1, 2, 4} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d mailbox order diverged:\n got %q\nwant %q", workers, got, want)
		}
	}
}

// TestParallelInterruptFromExclusive: fault-injection-style Interrupt of a
// confined activity from exclusive context stays deterministic.
func TestParallelInterruptFromExclusive(t *testing.T) {
	boom := errors.New("boom")
	run := func(workers int) string {
		s := New(3)
		s.SetLookahead(200 * time.Microsecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		var log strings.Builder
		victim := s.SpawnOn(1, "victim", func(env *Env) error {
			for {
				if err := env.Sleep(100 * time.Microsecond); err != nil {
					fmt.Fprintf(&log, "victim unwound at %v: %v;", env.Now(), err)
					return nil
				}
			}
		})
		s.Spawn("killer", func(env *Env) error {
			if err := env.Sleep(5 * time.Millisecond); err != nil {
				return err
			}
			victim.Interrupt(boom)
			return nil
		})
		if err := s.Run(0); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return log.String()
	}
	want := run(0)
	if !strings.Contains(want, "boom") {
		t.Fatalf("interrupt not delivered: %q", want)
	}
	for _, workers := range []int{1, 4} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d interrupt diverged: got %q want %q", workers, got, want)
		}
	}
}
