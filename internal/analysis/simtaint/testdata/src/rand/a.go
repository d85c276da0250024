// Fixture for simtaint's global-rand source sites: package-level
// math/rand functions are violations; seeded *rand.Rand streams and the
// constructors (math/rand/v2's included) are the endorsed path.
package rand

import (
	"math/rand"
	randv2 "math/rand/v2"
)

func violations() {
	_ = rand.Intn(6)        // want `global rand\.Intn`
	_ = rand.Float64()      // want `global rand\.Float64`
	_ = rand.Int63()        // want `global rand\.Int63`
	_ = rand.Perm(4)        // want `global rand\.Perm`
	rand.Shuffle(3, swap)   // want `global rand\.Shuffle`
	rand.Seed(42)           // want `global rand\.Seed`
	_ = rand.ExpFloat64()   // want `global rand\.ExpFloat64`
	f := rand.NormFloat64   // want `global rand\.NormFloat64`
	_ = f
}

func swap(i, j int) {}

func fine(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, 100)
	_ = z.Uint64()
	rng.Shuffle(3, swap) // method on the seeded stream, not the global one
	return rng.Float64()
}

func fineV2() uint64 {
	rng := randv2.New(randv2.NewPCG(1, 2)) // seeded, replayable: a constructor like NewSource
	_ = randv2.N(10)                       // want `global rand\.N`
	return rng.Uint64()
}

func suppressed() int {
	return rand.Intn(2) //spritelint:allow simtaint fixture exercises the escape hatch
}
