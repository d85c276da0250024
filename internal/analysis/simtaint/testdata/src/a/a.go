// Fixture: each sink hit is one call hop away from its source. The
// source lines (stamp, jitter) are flagged where they stand, but that the
// values reach trace emission is visible only through the whole-tree
// taint summaries that connect the two.
package a

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	sim "sprite/internal/sim"
)

func stamp() string { return time.Now().Format(time.RFC3339) } // want `wall-clock time\.Now in simulated code`

func jitter() int { return rand.Intn(10) } // want `global rand\.Intn`

func report(env *sim.Env) {
	env.Emit("host.up", stamp()) // want `wall-clock-derived value reaches sim\.\(Env\)\.Emit; goldens and seed replay diverge`
}

func emitJitter(env *sim.Env) {
	env.Emit("host.jitter", strconv.Itoa(jitter())) // want `global-rand-derived value reaches sim\.\(Env\)\.Emit`
}

// clean: deterministic clocks and per-shard randomness carry no taint.
func reportClean(env *sim.Env) {
	env.Emit("host.tick", strconv.Itoa(int(env.Now())))
	env.Emit("host.pick", strconv.Itoa(env.LocalRand().Intn(10)))
}

func helperEmit(env *sim.Env, k string) { env.Emit("host.key", k) }

func dump(env *sim.Env, m map[string]string) {
	for k := range m {
		helperEmit(env, k) // want `a\.helperEmit emits order-sensitively and is called once per map iteration` `map-order-derived value reaches via a\.helperEmit`
	}
}

// dumpSorted is forgiven: the keys are sorted before the emitting loop.
func dumpSorted(env *sim.Env, m map[string]string) {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		helperEmit(env, k)
	}
}
