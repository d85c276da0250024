// Fixture for the rules on a spawned body itself (confine and sharded
// together): activities confined to a shard via SpawnOn must not mutate
// captured state, draw from the shared random stream, or bump unsharded
// metrics; exclusive activities (Spawn) are unrestricted.
package spawned

import (
	"sprite/internal/metrics"
	"sprite/internal/sim"
)

type plane struct {
	ticks *metrics.Counter
	gap   *metrics.Timing
	depth *metrics.Gauge
	mbox  *sim.Mailbox
	seen  map[int]int
	total int
}

func good(s *sim.Simulation, p *plane) {
	s.SpawnOn(1, "good", func(env *sim.Env) error {
		r := env.LocalRand()
		slot := sim.WorkerSlot(env)
		local := 0
		for i := 0; i < 8; i++ {
			local += r.Intn(3) // literal-local state is fine
			p.ticks.IncSlot(slot)
			p.gap.ObserveSlot(slot, env.Now())
		}
		p.mbox.Send(env, local) // cross-shard data rides the mailbox
		return nil
	})
	// Exclusive activities may mutate shared state and use the unsharded
	// mutators: the serial commit order is the arbiter on shard 0.
	s.Spawn("collector", func(env *sim.Env) error {
		p.total++
		p.ticks.Inc()
		return nil
	})
}

func bad(s *sim.Simulation, p *plane, hosts []int) {
	s.SpawnOn(2, "bad", func(env *sim.Env) error {
		r := env.Rand()          // want `sim\.Env\.Rand is banned on confined shards`
		p.total += r.Intn(2)     // want `writes captured p, declared outside the confined body`
		p.seen[1] = 2            // want `writes captured p, declared outside the confined body`
		hosts[0] = 3             // want `writes captured hosts, declared outside the confined body`
		p.ticks.Inc()            // want `metrics\.Counter\.Inc contends across shards \(use Counter\.IncSlot`
		p.ticks.Add(2)           // want `metrics\.Counter\.Add contends across shards \(use Counter\.AddSlot`
		p.gap.Observe(env.Now()) // want `metrics\.Timing\.Observe contends across shards \(use Timing\.ObserveSlot`
		p.depth.Set(1)           // want `metrics\.Gauge\.Set is deliberately unsharded`
		return nil
	})
}

// daemon is the closure-factory idiom (workload.BgLoad.daemon): the
// call graph follows the SpawnOn argument into the returned literal.
func (p *plane) daemon(host int) func(env *sim.Env) error {
	return func(env *sim.Env) error {
		p.total += host // want `writes captured p, declared outside the confined body`
		local := 0
		local++ // literal-local, fine
		return nil
	}
}

func viaFactory(s *sim.Simulation, p *plane) {
	s.SpawnOn(3, "via", p.daemon(3))
}

func suppressed(s *sim.Simulation, p *plane) {
	s.SpawnOn(4, "supp", func(env *sim.Env) error {
		p.total++ //spritelint:allow confine fixture exercises the escape hatch
		return nil
	})
}
