package sim

import (
	"fmt"
	"testing"
	"time"
)

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
