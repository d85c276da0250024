package sim

import (
	"runtime"
	"testing"
	"time"

	"sprite/internal/allocs"
)

// Tests for the carrier contract: activities run on pooled runtime
// coroutines, a warm spawn reuses an idle one, the idle ones a run leaves
// behind are bounded process-wide, and runtime.Goexit inside an activity
// ends Run's caller instead of hanging it. TestRehomeEquivalence covers an
// activity resumed from the coordinator and from different workers.

// spawnExitOn is the spawn-and-exit program: a parent on shard spawns ops
// children onto its own shard one at a time, yielding so each child runs
// and exits before the next spawn.
func spawnExitOn(shard int) func(s *Simulation, ops int) {
	return func(s *Simulation, ops int) {
		s.SpawnOn(shard, "parent", func(env *Env) error {
			for i := 0; i < ops; i++ {
				env.Spawn("child", func(*Env) error { return nil })
				if err := env.Yield(); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// TestSpawnReusesCarrier: a warm spawn-and-exit allocates the activity and
// nothing else — no coroutine — on the serial kernel, inside a 2-worker
// window, where the parent is confined and its children finish on the
// worker that spawned them, and in the 2-worker kernel's serial regime. On
// the serial kernel and in the serial regime each child finishes inside its
// parent's nested dispatch (TestBatonNestedFinishReturnsCarrier).
func TestSpawnReusesCarrier(t *testing.T) {
	skipAllocCounts(t)
	for _, tc := range []struct {
		workers, shard int
		rc             regimeCase
	}{{0, 0, regimeCase{}}, {2, 1, regimeCase{name: "windowed", pin: regimeWindowed}}, {2, 1, regimeCase{name: "serial", pin: regimeSerial}}} {
		got := perOpAllocs(t, tc.workers, tc.rc, spawnExitOn(tc.shard))
		t.Logf("workers=%d %s: %.3f allocs per spawn-and-exit", tc.workers, tc.rc.name, got)
		allocs.Check(t, "sim.spawn_exit.warm", got)
	}
}

// TestIdleCarriersBounded: a run that needs 2×maxSpareCarriers carriers at
// once leaves at most maxSpareCarriers of them parked, and a second
// simulation in the process starts on those instead of new coroutines.
func TestIdleCarriersBounded(t *testing.T) {
	const acts = 2 * maxSpareCarriers
	sleeper := func(env *Env) error { return env.Sleep(time.Millisecond) }
	before := runtime.NumGoroutine()
	s := New(1)
	for i := 0; i < acts; i++ {
		s.Spawn("sleeper", sleeper)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if grew := runtime.NumGoroutine() - before; grew > maxSpareCarriers {
		t.Fatalf("%d concurrent activities left %d more goroutines, want <= %d", acts, grew, maxSpareCarriers)
	}

	skipAllocCounts(t)
	// A fresh simulation's spawn costs the activity, its first event and
	// its share of the queue and live-set growth; a new coroutine would
	// add about nine objects more.
	const n = maxSpareCarriers
	perSpawn := testing.AllocsPerRun(2, func() {
		s := New(2)
		for i := 0; i < n; i++ {
			s.Spawn("sleeper", sleeper)
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("fresh simulation: %.2f allocs per spawn", perSpawn)
	allocs.Check(t, "sim.spawn.fresh_simulation", perSpawn)
}

// TestGoexitInActivityEndsRun: runtime.Goexit inside an activity (as
// t.FailNow would call) ends the goroutine that called Run, under both
// kernels and every dispatch regime, instead of leaving it blocked forever.
// In a window it fires once in a share the coordinator runs (shard 1,
// worker 0's) and once in a helper's (shard 2): at 1ms both shards have
// events, so both workers are active in the quitter's window. The serial
// regime runs the quitter on the coordinator, in worker slot 0. The
// measured regime's first epoch is windowed (serial with one worker); flip3
// starts serial, and the three first resumes at 0 end its first epoch, so
// the quitter runs in a window. Either way no helper goroutine outlives the
// Run.
func TestGoexitInActivityEndsRun(t *testing.T) {
	type goexitCase struct {
		workers, shard, slot int
		rc                   regimeCase
	}
	cases := []goexitCase{{0, 1, 0, regimeCase{}}}
	for _, rc := range regimeCases {
		for _, workers := range []int{1, 2, 4, 8} {
			for shard := 1; shard <= 2; shard++ {
				slot := 0
				if rc.pin == regimeWindowed || rc.flip > 0 || rc.pin == regimeMeasured && workers > 1 {
					slot = (shard-1)%workers + 1
				}
				cases = append(cases, goexitCase{workers, shard, slot, rc})
			}
		}
	}
	for _, tc := range cases {
		s := New(1)
		s.SetLookahead(time.Millisecond)
		if tc.workers > 0 {
			s.ConfigureParallel(tc.workers)
			tc.rc.apply(s)
		}
		for sh := 1; sh <= 2; sh++ {
			s.SpawnOn(sh, "sleeper", func(env *Env) error {
				if err := env.Sleep(time.Millisecond); err != nil {
					return err
				}
				return env.Sleep(3 * time.Millisecond)
			})
		}
		slot := -1
		s.SpawnOn(tc.shard, "quitter", func(env *Env) error {
			if err := env.Sleep(time.Millisecond); err != nil {
				return err
			}
			slot = WorkerSlot(env)
			runtime.Goexit()
			return nil
		})
		ended, returned := make(chan struct{}), false
		go func() {
			defer close(ended)
			_ = s.Run(0)
			returned = true
		}()
		timeout := time.After(10 * time.Second) //spritelint:allow simtaint a hang is the failure under test; the wall-clock bound never reaches the simulation
		select {
		case <-ended:
		case <-timeout:
			t.Fatalf("%+v: Run still blocked 10s after an activity called runtime.Goexit", tc)
		}
		if returned {
			t.Errorf("%+v: Run returned normally; want the Goexit to end its caller", tc)
		}
		if slot != tc.slot {
			t.Errorf("%+v: quitter ran in worker slot %d", tc, slot)
		}
		if n := liveHelpers(); n > 0 {
			t.Errorf("%+v: %d helper goroutines outlived the Run", tc, n)
		}
	}
}
