// Fixture: the unsharded metrics mutators live in methods two hops below
// the spawn literal. The per-function shardedstate analyzer inspects only
// the literal body and sees nothing here; sharded joins the per-function
// facts against confined reachability.
package a

import (
	metrics "sprite/internal/metrics"
	sim "sprite/internal/sim"
)

type meter struct {
	served  *metrics.Counter
	latency *metrics.Timing
	depth   *metrics.Gauge
	reg     *metrics.Registry
}

func Boot(s *sim.Simulation, m *meter) {
	s.SpawnOn(2, "serve", func(env *sim.Env) error {
		m.serve(env)
		return nil
	})
}

func (m *meter) serve(env *sim.Env) {
	m.bump(env)
	m.bumpSlot(env)
}

func (m *meter) bump(env *sim.Env) {
	m.served.Inc()               // want `metrics\.Counter\.Inc contends across shards \(use Counter\.IncSlot with sim\.WorkerSlot\) — reachable from confined spawn: SpawnOn -> a\.Boot\$1 -> a\.\(meter\)\.serve -> a\.\(meter\)\.bump`
	m.latency.Observe(env.Now()) // want `metrics\.Timing\.Observe contends across shards \(use Timing\.ObserveSlot with sim\.WorkerSlot\) — reachable from confined spawn`
	m.depth.Set(1)               // want `metrics\.Gauge\.Set is deliberately unsharded; gauges must be driven from the exclusive shard — reachable from confined spawn`
	m.reg.SetGauges("a.", *m)    // want `metrics\.Registry\.SetGauges is deliberately unsharded; gauges must be driven from the exclusive shard — reachable from confined spawn`
}

// bumpSlot is the compliant path: slot-sharded mutators keyed by the
// worker slot are cheap and interleaving-independent.
func (m *meter) bumpSlot(env *sim.Env) {
	m.served.IncSlot(sim.WorkerSlot(env))
	m.latency.ObserveSlot(sim.WorkerSlot(env), env.Now())
}

// Drain runs exclusively (Simulation.Spawn spawns on shard 0): unsharded
// mutators are legal there, so drainAll is reported nowhere.
func Drain(s *sim.Simulation, m *meter) {
	s.Spawn("drain", func(env *sim.Env) error {
		m.drainAll()
		return nil
	})
}

func (m *meter) drainAll() {
	m.served.Add(1)
	m.depth.Set(0)
}
