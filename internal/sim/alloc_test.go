package sim

import (
	"fmt"
	"testing"
	"time"

	"sprite/internal/allocs"
	"sprite/internal/trace"
)

// The allocation tests below all measure a warm simulation: one Simulation
// lives across the runs testing.AllocsPerRun makes, each run spawns the
// program afresh and runs it to completion, and AllocsPerRun's own warm-up
// call fills the event freelist, the worker pools and the effect logs. What
// is left is what the program costs every time — the spawns — plus whatever
// the kernel allocates per event, which is what the tests bound. Under the
// measured regime where the epochs fall depends on the host clock, so a
// run's windows may still set new high-water marks after the first; three
// more warm-up runs let them settle first.

func skipAllocCounts(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
}

// warmAllocs reports the allocations of one spawn-and-run of program on a
// warm simulation under the given kernel (workers 0 = serial) and regime.
func warmAllocs(t *testing.T, workers int, rc regimeCase, program func(s *Simulation)) float64 {
	t.Helper()
	s := New(1)
	s.SetLookahead(time.Millisecond)
	if workers > 0 {
		s.ConfigureParallel(workers)
		rc.apply(s)
	}
	once := func() {
		program(s)
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		once()
	}
	return testing.AllocsPerRun(5, once)
}

// Shape of the confined-daemon program the allocation tests run.
const (
	confinedShards = 64
	confinedTicks  = 200
)

// spawnConfinedTickers starts a population of shard-confined daemons whose
// ticks carry real CPU work (a small hash loop standing in for per-host load
// accounting); each exits after confinedTicks ticks.
func spawnConfinedTickers(s *Simulation) {
	for sh := 1; sh <= confinedShards; sh++ {
		s.SpawnOn(sh, fmt.Sprintf("w%d", sh), func(env *Env) error {
			h := uint64(env.Shard())
			for k := 0; k < confinedTicks; k++ {
				if err := env.Sleep(10 * time.Microsecond); err != nil {
					return err
				}
				for j := 0; j < 4000; j++ { // per-tick bookkeeping work
					h = (h ^ uint64(j)) * 1099511628211
				}
			}
			_ = h
			return nil
		})
	}
}

// TestWindowAllocsMatchSerial pins the tentpole: on the spawnConfinedTickers
// program a warm parallel kernel allocates within 10% of the serial one
// under every dispatch regime — the spawns and the per-Run helper
// goroutines, nothing per window or per event. Commits of the serial regime
// allocate nothing at all: 4,000 more sleeps leave the count where it was.
func TestWindowAllocsMatchSerial(t *testing.T) {
	skipAllocCounts(t)
	serial := warmAllocs(t, 0, regimeCase{}, spawnConfinedTickers)
	for _, rc := range regimeCases {
		parallel := warmAllocs(t, 2, rc, spawnConfinedTickers)
		t.Logf("allocs per run of %d events: serial %.0f, workers=2 %s %.0f", confinedShards*confinedTicks, serial, rc.name, parallel)
		allocs.Check(t, "sim.window.parallel_over_serial", parallel/serial)
	}
	perCommit := perOpAllocs(t, 2, regimeCase{pin: regimeSerial}, func(s *Simulation, ops int) {
		for sh := 1; sh <= 8; sh++ {
			s.SpawnOn(sh, "ticker", func(env *Env) error {
				for k := 0; k < ops/8; k++ {
					if err := env.Sleep(time.Duration(1+k%7) * time.Microsecond); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
	allocs.Check(t, "sim.window.serial_regime_commit", perCommit)
}

// perOpAllocs runs program at two sizes on warm simulations under the given
// kernel and returns the allocations each additional operation cost.
func perOpAllocs(t *testing.T, workers int, rc regimeCase, program func(s *Simulation, ops int)) float64 {
	t.Helper()
	const small, large = 200, 4200
	at := func(ops int) float64 {
		return warmAllocs(t, workers, rc, func(s *Simulation) { program(s, ops) })
	}
	return (at(large) - at(small)) / (large - small)
}

// TestQueueHandoffAllocFree: a Queue ping-pong costs nothing per handoff
// once the queues' backing arrays exist (row sim.queue.handoff), so a round
// trip of BenchmarkDispatchPingPong allocates nothing (sim.dispatch.pingpong).
// With s = s[1:] pops every Send reallocated both the item and the waiter
// list.
func TestQueueHandoffAllocFree(t *testing.T) {
	skipAllocCounts(t)
	perRound := perOpAllocs(t, 0, regimeCase{}, pingPong)
	allocs.Check(t, "sim.queue.handoff", perRound/2)
	allocs.Check(t, "sim.dispatch.pingpong", perRound)
}

// TestFutureOneWaiterAllocFree: a future with one waiter at a time keeps
// it in its inline slot, so a Wait/Complete/Reset cycle costs nothing (row
// sim.future.one_waiter), even on a future never waited on before, as a new
// process's exit future and its first hop's join are. Every cycle here
// starts on a zero Future; before the inline slot, each first Wait grew a
// waiter array of one.
func TestFutureOneWaiterAllocFree(t *testing.T) {
	skipAllocCounts(t)
	futures := make([]Future, 4200)
	got := perOpAllocs(t, 0, regimeCase{}, func(s *Simulation, ops int) {
		clear(futures)
		s.Spawn("waiter", func(env *Env) error {
			for i := range ops {
				if _, err := futures[i].Wait(env); err != nil {
					return err
				}
				futures[i].Reset()
			}
			return nil
		})
		s.Spawn("completer", func(env *Env) error {
			for i := range ops {
				if err := env.Sleep(time.Microsecond); err != nil {
					return err
				}
				futures[i].Complete(env, nil, nil)
			}
			return nil
		})
	})
	allocs.Check(t, "sim.future.one_waiter", got)
}

// TestResourceContendedAllocFree: a one-slot Resource fought over by four
// activities — three always queued — costs nothing per Acquire/Release.
func TestResourceContendedAllocFree(t *testing.T) {
	skipAllocCounts(t)
	got := perOpAllocs(t, 0, regimeCase{}, func(s *Simulation, ops int) {
		r := NewResource(s, 1)
		for u := 0; u < 4; u++ {
			s.Spawn(fmt.Sprintf("u%d", u), func(env *Env) error {
				for i := 0; i < ops/4; i++ {
					if err := r.Use(env, time.Microsecond); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
	allocs.Check(t, "sim.resource.contended", got)
}

// TestFifoKeepsOrderAndArray drives the fifo behind Queue and Resource
// through drain-rewind, slide-down and mid-list removal against a plain
// slice model, and checks that a bounded backlog never grows the array.
func TestFifoKeepsOrderAndArray(t *testing.T) {
	var f fifo[int]
	var model []int
	next := 0
	check := func(when string) {
		t.Helper()
		if f.len() != len(model) {
			t.Fatalf("%s: len %d, model %d", when, f.len(), len(model))
		}
		for i, v := range f.live() {
			if v != model[i] {
				t.Fatalf("%s: live()[%d] = %d, model %d", when, i, v, model[i])
			}
		}
	}
	push := func() {
		f.push(next)
		model = append(model, next)
		next++
	}
	pop := func() {
		if got := f.pop(); got != model[0] {
			t.Fatalf("pop = %d, model %d", got, model[0])
		}
		model = model[1:]
	}
	for i := 0; i < 8; i++ {
		push()
	}
	ceiling := cap(f.buf)
	for round := 0; round < 100; round++ {
		// Backlog oscillates between 3 and 8 without ever draining, so the
		// array must be kept by sliding, not by the rewind.
		for f.len() > 3 {
			pop()
		}
		if round%7 == 0 {
			mid := model[1]
			f.remove(mid)
			model = append(model[:1:1], model[2:]...)
			check("after remove")
		}
		for f.len() < 8 {
			push()
		}
		check("after refill")
	}
	if cap(f.buf) != ceiling {
		t.Fatalf("backing array grew from %d to %d under a bounded backlog", ceiling, cap(f.buf))
	}
	for f.len() > 0 {
		pop()
	}
	if f.head != 0 || len(f.buf) != 0 {
		t.Fatalf("drained fifo did not rewind: head %d len %d", f.head, len(f.buf))
	}
	f.remove(42) // absent: a no-op
	check("drained")
}

// everyEvent calls fn on each event the simulation owns while idle: the
// global freelist, anything still queued, and the worker pools.
func everyEvent(s *Simulation, fn func(*event)) {
	for _, ev := range s.free {
		fn(ev)
	}
	for _, ev := range s.queue {
		fn(ev)
	}
	if s.par != nil {
		for _, w := range s.par.workers {
			for _, ev := range w.pool {
				fn(ev)
			}
		}
	}
}

// TestEmitWithoutSinkBuffersNothing: with no trace sink installed an
// in-window Emit must not buffer entries for replay to throw away. The
// program is the bgload daemons' shape — confined tickers that Emit and
// report to an exclusive collector through a mailbox. An event's trace log
// keeps its backing array when recycled, so any buffering shows afterwards
// as capacity; the sink-installed leg proves the probe can see it.
func TestEmitWithoutSinkBuffersNothing(t *testing.T) {
	buffered := func(withSink bool) (n int) {
		s := New(5)
		s.SetLookahead(200 * time.Microsecond)
		s.ConfigureParallel(2)
		if withSink {
			s.SetTraceSink(func(trace.Event) {})
		}
		reports := NewMailbox(s, 300*time.Microsecond)
		s.Spawn("collector", func(env *Env) error {
			env.MarkDaemon()
			for {
				if _, err := reports.Recv(env); err != nil {
					return nil
				}
			}
		})
		for sh := 1; sh <= 8; sh++ {
			s.SpawnOn(sh, fmt.Sprintf("bgload.%d", sh), func(env *Env) error {
				r := env.LocalRand()
				for tick := 0; tick < 50; tick++ {
					if err := env.Sleep(time.Duration(50+r.Intn(100)) * time.Microsecond); err != nil {
						return nil
					}
					if tick%5 == 4 {
						note(env, "bgload.report", env.Name())
						reports.Send(env, tick)
					}
				}
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		everyEvent(s, func(ev *event) {
			if cap(ev.traces) > 0 {
				n++
			}
		})
		return n
	}
	if buffered(true) == 0 {
		t.Fatal("probe is blind: no event buffered a trace entry even with a sink installed")
	}
	if n := buffered(false); n != 0 {
		t.Fatalf("%d events buffered trace entries with no sink installed", n)
	}
}

// TestWindowScratchHoldsNoEvents: between windows the kernel's scratch
// arrays — the committed prefix, the replay frontier, each worker's local
// heap — must not keep pointers to events that have since been recycled,
// and every recycled event must be fully reset.
func TestWindowScratchHoldsNoEvents(t *testing.T) {
	s := New(9)
	s.SetLookahead(500 * time.Microsecond)
	s.ConfigureParallel(2)
	spawnConfinedTickers(s)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	p := s.par
	scratch := map[string][]*event{"window": p.window, "frontier": p.frontier}
	for _, w := range p.workers {
		scratch[fmt.Sprintf("worker %d local heap", w.idx)] = w.local
	}
	for name, sl := range scratch {
		if len(sl) != 0 {
			t.Errorf("%s still holds %d live entries after Run", name, len(sl))
		}
		for i, ev := range sl[:cap(sl)] {
			if ev != nil {
				t.Errorf("%s[%d] pins a recycled event", name, i)
			}
		}
	}
	recycled := 0
	everyEvent(s, func(ev *event) {
		recycled++
		if !ev.cancelled() || ev.at != 0 || ev.seq != 0 || ev.mval != nil ||
			ev.consumed || ev.dispatched || ev.finished || len(ev.children) != 0 || len(ev.traces) != 0 {
			t.Errorf("recycled event not reset: %+v", *ev)
		}
		for _, ch := range ev.children[:cap(ev.children)] {
			if ch.ev != nil || ch.spawn != nil {
				t.Errorf("recycled event's effect log pins %+v", ch)
			}
		}
	})
	if recycled == 0 {
		t.Fatal("no recycled events to inspect")
	}
}
