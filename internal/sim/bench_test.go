package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEventLoop measures the scheduler's hot path: many activities
// sleeping in lockstep, so every iteration exercises schedule, the event
// heap, and dispatch. The event freelist should keep steady-state event
// allocations near zero.
func BenchmarkEventLoop(b *testing.B) {
	const (
		workers = 8
		ticks   = 500
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for w := 0; w < workers; w++ {
			s.Spawn(fmt.Sprintf("w%d", w), func(env *Env) error {
				for k := 0; k < ticks; k++ {
					if err := env.Sleep(time.Microsecond); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// Shape of the confined-daemon program shared by BenchmarkParallelKernel and
// the allocation tests.
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

// benchConfined runs the confined-daemon program under the serial or the
// parallel kernel. The digest of the committed order is checked across
// iterations so the benchmark doubles as an equivalence smoke check.
func benchConfined(b *testing.B, workers int) {
	b.ReportAllocs()
	var first uint64
	for i := 0; i < b.N; i++ {
		s := New(1)
		s.SetLookahead(time.Millisecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		spawnConfinedTickers(s)
		if err := s.Run(0); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first = s.OrderDigest()
		} else if s.OrderDigest() != first {
			b.Fatalf("nondeterministic digest across runs: %#x vs %#x", s.OrderDigest(), first)
		}
	}
}

// BenchmarkParallelKernel compares the serial oracle against the parallel
// kernel at increasing worker counts on a confined-daemon workload (the
// sim-layer form of what E17 measures at cluster scale).
func BenchmarkParallelKernel(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchConfined(b, 0) })
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) { benchConfined(b, w) })
	}
}

// BenchmarkEventLoopDrain measures shutdown: a large population of blocked
// activities unwound by Stop. The drain path should be near-linear in the
// number of activities, not quadratic.
func BenchmarkEventLoopDrain(b *testing.B) {
	const workers = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for w := 0; w < workers; w++ {
			s.Spawn(fmt.Sprintf("w%d", w), func(env *Env) error {
				err := env.Sleep(time.Hour)
				return err
			})
		}
		s.After(time.Millisecond, s.Stop)
		if err := s.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}
