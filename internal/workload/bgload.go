package workload

import (
	"fmt"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

// BgLoadConfig sizes the background-load plane: one confined daemon per
// host, each on its own simulation shard, modelling the per-host load
// accounting (sampling, EWMA folding, table maintenance) that in Sprite ran
// on every workstation regardless of what the migration plane was doing.
// These daemons are the cluster's embarrassingly parallel component: they
// interact with the exclusive plane only through Mailbox reports, so the
// conservative parallel kernel can dispatch them concurrently while
// committing exactly the serial order.
type BgLoadConfig struct {
	// Hosts is the daemon count; daemon i runs on shard 1+i.
	Hosts int
	// Tick is the mean sampling period (default 50ms); each daemon jitters
	// its ticks from its shard-local deterministic stream.
	Tick time.Duration
	// WorkPerTick is the synthetic bookkeeping cost of one sample, in hash
	// iterations (default 2000) — the knob E17 turns to set the
	// parallel-to-serial work ratio.
	WorkPerTick int
	// ReportEvery sends one load report to the central collector every N
	// ticks (0 disables reporting).
	ReportEvery int
	// Ticks bounds each daemon's lifetime (0 = run until the simulation
	// stops or the daemon is interrupted).
	Ticks int
}

func (c BgLoadConfig) withDefaults() BgLoadConfig {
	if c.Tick <= 0 {
		c.Tick = 50 * time.Millisecond
	}
	if c.WorkPerTick <= 0 {
		c.WorkPerTick = 2000
	}
	return c
}

// BgLoadReport is one daemon's periodic message to the collector.
type BgLoadReport struct {
	Host int
	Tick int
	// Load is the daemon's accumulated synthetic load word — a pure
	// function of (seed, shard, tick), so collectors can assert
	// determinism across kernels and worker counts.
	Load uint64
}

// BgLoad is the handle on a running background-load plane. All accessors
// are for after the run (or from exclusive activities).
type BgLoad struct {
	cfg  BgLoadConfig
	mbox *sim.Mailbox

	ticks   *metrics.Counter
	reports *metrics.Counter
	tickDur *metrics.Timing

	received int
	lastLoad map[int]uint64
}

// StartBgLoad spawns the per-host daemons and, when reporting is on, one
// exclusive collector draining their shared mailbox. Must be called before
// the simulation runs (it is scenario setup, not an activity).
func StartBgLoad(s *sim.Simulation, reg *metrics.Registry, cfg BgLoadConfig) *BgLoad {
	cfg = cfg.withDefaults()
	// Instrument pointers are resolved here, in the exclusive setup phase,
	// so confined ticks never touch the registry lock.
	b := &BgLoad{
		cfg:      cfg,
		lastLoad: make(map[int]uint64),
		ticks:    reg.Counter("bgload.ticks"),
		reports:  reg.Counter("bgload.reports"),
		tickDur:  reg.Timing("bgload.tick_gap"),
	}
	if cfg.ReportEvery > 0 {
		// Reports cross shards, so they ride a mailbox whose delay clears
		// the conservative horizon.
		delay := s.Lookahead()
		if delay <= 0 {
			delay = time.Millisecond
		}
		b.mbox = sim.NewMailbox(s, delay)
		s.Spawn("bgload.collector", func(env *sim.Env) error {
			done := 0
			for {
				v, err := b.mbox.Recv(env)
				if err != nil {
					return nil
				}
				r := v.(*BgLoadReport)
				if r.Tick < 0 {
					// Retirement sentinel from a daemon that exhausted its
					// tick budget; once all have retired the collector exits
					// so bounded runs quiesce instead of deadlocking on an
					// empty mailbox.
					done++
					if cfg.Ticks > 0 && done == cfg.Hosts {
						return nil
					}
					continue
				}
				b.received++
				b.lastLoad[r.Host] = r.Load
			}
		})
	}
	for i := 0; i < cfg.Hosts; i++ {
		host := i
		s.SpawnOn(1+i, fmt.Sprintf("bgload.%d", host), b.daemon(host))
	}
	return b
}

// daemon is one host's load-accounting loop: jittered ticks, a burst of
// synthetic bookkeeping per tick, sharded metrics, periodic reports. A
// report travels as a pointer into the daemon's slab of 16, so sending it
// boxes nothing; a used-up slab is left to the collector and a fresh one
// made.
func (b *BgLoad) daemon(host int) func(env *sim.Env) error {
	return func(env *sim.Env) error {
		var slab []BgLoadReport
		send := func(rep BgLoadReport) {
			if len(slab) == 0 {
				slab = make([]BgLoadReport, 16)
			}
			slab[0] = rep
			b.mbox.Send(env, &slab[0])
			slab = slab[1:]
		}
		r := env.LocalRand()
		slot := 0
		load := uint64(env.Shard())
		last := env.Now()
		for tick := 0; b.cfg.Ticks == 0 || tick < b.cfg.Ticks; tick++ {
			jitter := time.Duration(r.Int63n(int64(b.cfg.Tick)))
			if err := env.Sleep(b.cfg.Tick/2 + jitter); err != nil {
				return nil
			}
			// WorkerSlot must be sampled inside the dispatched tick — the
			// daemon migrates between workers across windows.
			slot = sim.WorkerSlot(env)
			for j := 0; j < b.cfg.WorkPerTick; j++ {
				load = (load ^ uint64(j)) * 1099511628211
			}
			b.ticks.IncSlot(slot)
			b.tickDur.ObserveSlot(slot, env.Now()-last)
			last = env.Now()
			if b.mbox != nil && b.cfg.ReportEvery > 0 && (tick+1)%b.cfg.ReportEvery == 0 {
				env.Emit(trace.Event{Kind: trace.BgLoadReport, Host: host, Tick: tick})
				send(BgLoadReport{Host: host, Tick: tick, Load: load})
				b.reports.IncSlot(slot)
			}
		}
		if b.mbox != nil {
			send(BgLoadReport{Host: host, Tick: -1, Load: load})
		}
		return nil
	}
}

// Received returns how many reports the collector drained.
func (b *BgLoad) Received() int { return b.received }

// LastLoad returns host's most recent reported load word.
func (b *BgLoad) LastLoad(host int) (uint64, bool) {
	v, ok := b.lastLoad[host]
	return v, ok
}
