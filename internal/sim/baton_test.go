package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Directed tests for passBaton: while runSerial's loop (or the parallel
// kernel's serial regime) runs, a blocking activity commits the loop's next
// steps itself, and hands the baton down at Stop, Run's limit, an After
// callback, the epoch boundary and the resume of an activity that is itself
// inside a nested dispatch. Each test runs its program on the serial kernel
// and on a 2-worker parallel kernel under every regimeCase, and holds every
// run to what the windowed regime commits, which never passes the baton.

const batonLookahead = 100 * time.Microsecond

// kernelCase is one kernel a baton test runs on: the serial kernel
// (workers 0) or a 2-worker parallel kernel under one regimeCase.
type kernelCase struct {
	workers int
	rc      regimeCase
}

func (kc kernelCase) String() string {
	if kc.workers == 0 {
		return "serial kernel"
	}
	return fmt.Sprintf("workers=%d %s", kc.workers, kc.rc.name)
}

// newSim returns a simulation on kc's kernel.
func (kc kernelCase) newSim() *Simulation {
	s := New(7)
	s.SetLookahead(batonLookahead)
	if kc.workers > 0 {
		s.ConfigureParallel(kc.workers)
		kc.rc.apply(s)
	}
	return s
}

// batonRun is what a baton test compares across kernels: the committed
// order, the scheduler's counters and what the program itself observed.
type batonRun struct {
	digest uint64
	stats  Stats
	seen   string
}

// acrossKernels runs program on a fresh simulation of every kernel case and
// fails t unless each run matches the windowed regime's. program builds and
// runs its simulation and reports what it observed. acrossKernels returns the
// WindowStats of the pinned serial regime, whose InPlace counts the commits
// made inside activities.
func acrossKernels(t *testing.T, program func(s *Simulation) string) WindowStats {
	t.Helper()
	cases := []kernelCase{{2, regimeCase{name: "windowed", pin: regimeWindowed}}, {}}
	for _, rc := range regimeCases {
		if rc.pin != regimeWindowed {
			cases = append(cases, kernelCase{2, rc})
		}
	}
	var want batonRun
	var serial WindowStats
	for i, kc := range cases {
		s := kc.newSim()
		seen := program(s)
		got := batonRun{s.OrderDigest(), s.Stats(), seen}
		if i == 0 {
			if ws := s.WindowStats(); ws.InPlace != 0 {
				t.Errorf("%v committed %d events inside activities", kc, ws.InPlace)
			}
			want = got
			continue
		}
		if got != want {
			t.Errorf("%v diverged from the windowed regime:\n got %+v\nwant %+v", kc, got, want)
		}
		if kc.rc.pin == regimeSerial {
			serial = s.WindowStats()
		}
	}
	return serial
}

// ring starts n activities on shard that pass a token around rounds times,
// each over its own Queue: activity i receives on queue i and sends on queue
// i+1. Activity 0 sends first and blocks first, so under baton passing every
// round builds a chain n deep, and the innermost activity's next resume is
// the outermost's. hop, if set, runs in activity i each time it holds the
// token. An activity whose Recv fails records the error in errs, closes every
// queue so the others unwind too, and returns nil.
func ring(s *Simulation, shard, n, rounds int, hop func(env *Env, i, round int) error) (envs []*Env, errs []error) {
	qs := make([]*Queue, n)
	for i := range qs {
		qs[i] = NewQueue(s)
	}
	envs, errs = make([]*Env, n), make([]error, n)
	recv := func(env *Env, i int) bool {
		if _, err := qs[i].Recv(env); err != nil {
			errs[i] = err
			for _, q := range qs {
				q.Close()
			}
			return false
		}
		return true
	}
	for i := range n {
		envs[i] = s.SpawnOn(shard, fmt.Sprintf("ring%d", i), func(env *Env) error {
			for r := range rounds {
				if (i > 0 || r > 0) && !recv(env, i) {
					return nil
				}
				if hop != nil {
					if err := hop(env, i, r); err != nil {
						return err
					}
				}
				qs[(i+1)%n].Send(r)
			}
			if i == 0 {
				recv(env, 0) // the last lap's token
			}
			return nil
		})
	}
	return envs, errs
}

// TestBatonHoldingGuard (guard: the resume of a holding activity): in a
// three-activity ring the innermost activity's next resume is the
// outermost's, whose coroutine is inside a nested next. Committing it there
// would call next again before that coroutine yields; the baton goes down
// the chain instead, and the outermost commits its own resume.
func TestBatonHoldingGuard(t *testing.T) {
	ws := acrossKernels(t, func(s *Simulation) string {
		_, errs := ring(s, 1, 3, 50, nil)
		err := s.Run(0)
		return fmt.Sprint(err, errs, s.LiveActivities())
	})
	if ws.InPlace == 0 {
		t.Error("the serial regime committed nothing inside an activity")
	}
}

// TestBatonRunLimitSlices (guard: Run's limit): a ring whose token holders
// sleep, run as 120 Run(limit) slices, commits in each slice what the
// windowed regime does (nothing past the limit, the clock at the limit),
// and over all slices what one Run(0) commits. A slice often ends while the
// chain is three deep: the innermost sleeper's wake is the first event past
// the limit.
func TestBatonRunLimitSlices(t *testing.T) {
	const slices, slice = 120, 530 * time.Microsecond
	hop := func(env *Env, i, _ int) error {
		switch i {
		case 1:
			return env.Sleep(250 * time.Microsecond)
		case 2:
			return env.Sleep(time.Millisecond)
		}
		return nil
	}
	var oneRun string
	{
		s := kernelCase{}.newSim()
		_, errs := ring(s, 1, 3, 60, hop)
		err := s.Run(0)
		oneRun = fmt.Sprint(err, errs, s.LiveActivities(), s.Now(), s.OrderDigest(), s.Stats())
	}
	sliced := acrossKernels(t, func(s *Simulation) string {
		var last time.Duration
		_, errs := ring(s, 1, 3, 60, func(env *Env, i, r int) error {
			err := hop(env, i, r)
			last = env.Now()
			return err
		})
		seen := ""
		for k := 1; k <= slices; k++ {
			limit := time.Duration(k) * slice
			if err := s.Run(limit); err != nil {
				return err.Error()
			}
			if last > limit || s.Now() != limit {
				seen += fmt.Sprintf("slice %d: ran at %v, clock %v; ", k, last, s.Now())
			}
			seen += fmt.Sprintf("%x ", s.OrderDigest())
		}
		err := s.Run(0)
		if got := fmt.Sprint(err, errs, s.LiveActivities(), s.Now(), s.OrderDigest(), s.Stats()); got != oneRun {
			seen += "sliced run ended at " + got + ", one Run(0) at " + oneRun
		}
		return seen
	})
	if sliced.InPlace == 0 {
		t.Error("the serial regime committed nothing inside an activity")
	}
}

// TestBatonStopFromNestedActivity (guard: Stop): the innermost activity of
// a three-deep chain stops the simulation and blocks again. Nothing more
// commits; drain then unwinds every holder with ErrStopped and none is left
// live.
func TestBatonStopFromNestedActivity(t *testing.T) {
	acrossKernels(t, func(s *Simulation) string {
		_, errs := ring(s, 0, 3, 20, func(env *Env, i, r int) error {
			if i == 2 && r == 7 {
				env.Sim().Stop()
			}
			return nil
		})
		err := s.Run(0)
		for i, e := range errs {
			if !errors.Is(e, ErrStopped) {
				t.Errorf("ring%d unwound with %v, want ErrStopped", i, e)
			}
		}
		if err != nil || s.LiveActivities() != 0 {
			t.Errorf("Run = %v with %d activities live, want nil and none", err, s.LiveActivities())
		}
		return fmt.Sprint(s.Now())
	})
}

// TestBatonCallbackPanicEscapesRun (guard: an After callback): a callback
// queued between two resumes of a three-deep chain panics. The baton goes
// down to Run's own loop, so the panic escapes Run instead of ending the
// activity that would otherwise have run the callback, and is recorded as
// no activity's error.
func TestBatonCallbackPanicEscapesRun(t *testing.T) {
	acrossKernels(t, func(s *Simulation) string {
		ring(s, 1, 3, 10, nil)
		s.After(0, func() { panic("boom") })
		var got any
		func() {
			defer func() { got = recover() }()
			_ = s.Run(0)
		}()
		if got != "boom" {
			t.Errorf("Run's panic = %v, want the callback's", got)
		}
		s.Stop()
		if err := s.Run(0); err != nil || s.LiveActivities() != 0 {
			t.Errorf("draining after the panic: Run = %v, %d activities live", err, s.LiveActivities())
		}
		return fmt.Sprint(got)
	})
}

// TestBatonNestedFinishReturnsCarrier: on the serial kernel and in the
// serial regime, each child of spawnExitOn runs and finishes inside its
// parent's nested dispatch, and the parent's next resume is its own.
// TestSpawnReusesCarrier measures the same program against
// sim.spawn_exit.warm, so it is the check that a nested finish hands its
// carrier back.
func TestBatonNestedFinishReturnsCarrier(t *testing.T) {
	const ops = 50
	ws := acrossKernels(t, func(s *Simulation) string {
		spawnExitOn(1)(s, ops)
		err := s.Run(0)
		return fmt.Sprint(err, s.LiveActivities())
	})
	if ws.InPlace < 2*ops {
		t.Errorf("the serial regime committed %d events inside activities, want at least %d", ws.InPlace, 2*ops)
	}
}

// TestBatonInterruptHoldingActivity: the innermost activity of a three-deep
// chain interrupts the outermost, which is holding. The interrupt's resume
// waits for the chain to hand the baton down, and the outermost's Recv
// returns the interrupt's error.
func TestBatonInterruptHoldingActivity(t *testing.T) {
	errInterrupt := errors.New("interrupted")
	acrossKernels(t, func(s *Simulation) string {
		var envs []*Env
		envs, errs := ring(s, 1, 3, 20, func(env *Env, i, r int) error {
			if i == 2 && r == 5 {
				envs[0].Interrupt(errInterrupt)
			}
			return nil
		})
		err := s.Run(0)
		if !errors.Is(errs[0], errInterrupt) || !errors.Is(errs[1], ErrStopped) || !errors.Is(errs[2], ErrStopped) {
			t.Errorf("the ring unwound with %v, want the interrupt, then ErrStopped twice", errs)
		}
		return fmt.Sprint(err, s.LiveActivities(), s.Now())
	})
}

// TestBatonHandsDownAtEpochBoundary (guard: the epoch boundary): under a
// regime switch every three commits, a chain that would never end by
// itself still hands the baton down at each epoch's end, so nextEpoch runs
// on schedule and the windowed epochs form windows. Without the hand-down
// the first serial epoch would run the whole program.
func TestBatonHandsDownAtEpochBoundary(t *testing.T) {
	const rounds = 200
	program := func(s *Simulation) {
		ring(s, 1, 2, rounds, func(env *Env, i, _ int) error {
			if i == 1 {
				return env.Sleep(batonLookahead)
			}
			return nil
		})
	}
	acrossKernels(t, func(s *Simulation) string {
		program(s)
		return fmt.Sprint(s.Run(0), s.Now())
	})
	for _, flip := range []uint64{3, 16} {
		s := kernelCase{2, regimeCase{flip: flip}}.newSim()
		program(s)
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		ws := s.WindowStats()
		if epochs := s.Stats().EventsDispatched / flip; ws.Windows < epochs/4 {
			t.Errorf("flip%d: %d windows over %d epochs, %+v", flip, ws.Windows, epochs, ws)
		}
	}
}

// pingPong starts two exclusive activities that exchange a token rounds
// times over two Queues: ping sends and waits for the reply, pong waits and
// replies. Every commit is a resume; with the baton passed, ping's are
// committed in place and pong's are nested dispatches from ping.
func pingPong(s *Simulation, rounds int) {
	token := any("token") // boxed once, so the payload itself is free
	ping, pong := NewQueue(s), NewQueue(s)
	s.Spawn("ping", func(env *Env) error {
		for range rounds {
			ping.Send(token)
			if _, err := pong.Recv(env); err != nil {
				return err
			}
		}
		return nil
	})
	s.Spawn("pong", func(env *Env) error {
		for range rounds {
			if _, err := ping.Recv(env); err != nil {
				return err
			}
			pong.Send(token)
		}
		return nil
	})
}

// BenchmarkDispatchPingPong prices the dispatch itself: one op is a pingPong
// round trip on the serial kernel, two commits, each the resume of an
// activity blocked in Recv.
func BenchmarkDispatchPingPong(b *testing.B) {
	s := New(1)
	pingPong(s, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(0); err != nil {
		b.Fatal(err)
	}
}
