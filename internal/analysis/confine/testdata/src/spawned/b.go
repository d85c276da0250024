// Fixture for the per-host confinement idioms (DESIGN.md §14): Env.SpawnOn
// and Cluster.BootOn are confinement points like Simulation.SpawnOn; the
// activity argument may be a local variable bound to a literal or a method
// value, in which case the receiver's whole same-package method family runs
// confined and is checked transitively.
package spawned

import (
	"sprite/internal/core"
	"sprite/internal/metrics"
	"sprite/internal/sim"
)

// dropped stands for package-global state: cross-shard from any confined
// body, even a host-kernel method's.
var dropped int

// endpoint is the host-kernel shape: the object (and so its fields) is
// handed to its host's shard together with its method family.
type endpoint struct {
	served *metrics.Counter
	gap    *metrics.Timing
	cache  map[int]int
	seq    int
}

// serve is the dispatch-loop idiom: a method value passed to SpawnOn. Its
// receiver state is the host's shard-local state — mutating it is the
// per-host idiom, not a violation — but package globals stay off limits.
func (ep *endpoint) serve(env *sim.Env) error {
	ep.seq++          // receiver state: shard-local under the per-host idiom
	ep.cache[ep.seq]++ // likewise through a map
	dropped++ // want `writes package-level spawned\.dropped`
	ep.account(env)
	return nil
}

// account is reached from serve through the receiver family: the analyzer
// follows it and applies the confined checks there too.
func (ep *endpoint) account(env *sim.Env) {
	slot := sim.WorkerSlot(env)
	ep.served.IncSlot(slot)
	ep.gap.Observe(env.Now()) // want `metrics\.Timing\.Observe contends across shards \(use Timing\.ObserveSlot`
	_ = env.Rand()            // want `sim\.Env\.Rand is banned on confined shards`
}

// handle spawns a per-request activity with Env.Spawn — it inherits serve's
// shard, and writes to the receiver reached from its literal stay
// shard-local; the package global does not.
func (ep *endpoint) handle(env *sim.Env) error {
	env.Spawn("req", func(henv *sim.Env) error {
		ep.seq++  // same shard as the spawner: fine
		dropped++ // want `writes package-level spawned\.dropped`
		return nil
	})
	return nil
}

func spawnEndpoints(s *sim.Simulation, a, b *endpoint) {
	s.SpawnOn(1, "ep-a", a.serve)
	// The same family spawned twice is checked (and reported) once.
	s.SpawnOn(2, "ep-b", b.serve)
	s.SpawnOn(3, "ep-h", a.handle)
}

// envSpawnOn is core's process-body idiom: a confined activity pins a child
// to a shard via Env.SpawnOn, with the body bound to a local variable.
func envSpawnOn(env *sim.Env, p *plane) {
	body := func(penv *sim.Env) error {
		local := 0
		local++           // body-local: fine
		p.total += local  // want `writes captured p, declared outside the confined body`
		p.ticks.Inc()     // want `metrics\.Counter\.Inc contends across shards \(use Counter\.IncSlot`
		return nil
	}
	env.SpawnOn(4, "proc", body)
}

// bootOn is the driver idiom: Cluster.BootOn hands the literal to the
// host's shard.
func bootOn(c *core.Cluster, p *plane) {
	c.BootOn(7, "driver", func(env *sim.Env) error {
		procs := 0
		procs++ // literal-local: fine
		p.mbox.Send(env, procs)
		p.total = procs // want `writes captured p, declared outside the confined body`
		return nil
	})
}
